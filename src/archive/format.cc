#include "archive/format.h"

#include <algorithm>

#include "util/bits.h"
#include "util/byte_io.h"

namespace longdp {
namespace archive {

namespace {
// Encoded size of one footer index record (see EncodeFooter).
constexpr size_t kEntryBytes = 4 + 4 + 7 * 8 + 8 + 8 + 4;
}  // namespace

uint64_t ExpectedPayloadBytes(const ArchiveEntry& entry) {
  if (entry.kind == EntryKind::kCohort) {
    return uint64_t{8} * static_cast<uint64_t>(entry.rounds) *
           CohortWordsPerRound(entry.count);
  }
  return uint64_t{8} * static_cast<uint64_t>(entry.count);
}

std::string EncodeHeader() {
  std::string out;
  util::ByteWriter w(&out);
  w.U64(kMagic);
  w.U32(kFormatVersion);
  w.U32(0);  // reserved
  return out;
}

std::string EncodeTail(uint64_t footer_offset, uint32_t footer_crc) {
  std::string out;
  util::ByteWriter w(&out);
  w.U64(footer_offset);
  w.U32(footer_crc);
  w.U32(kFormatVersion);
  w.U64(kMagic);
  return out;
}

std::string EncodeFooter(const std::vector<std::string>& labels,
                         const std::vector<ArchiveEntry>& entries) {
  std::string out;
  util::ByteWriter w(&out);
  w.U32(static_cast<uint32_t>(labels.size()));
  for (const std::string& label : labels) {
    w.U32(static_cast<uint32_t>(label.size()));
    w.Raw(label.data(), label.size());
  }
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const ArchiveEntry& e : entries) {
    w.U32(static_cast<uint32_t>(e.kind));
    w.U32(e.label_id);
    w.I64(e.t);
    w.I64(e.window_k);
    w.I64(e.alphabet);
    w.I64(e.npad);
    w.I64(e.true_n);
    w.I64(e.count);
    w.I64(e.rounds);
    w.U64(e.offset);
    w.U64(e.bytes);
    w.U32(e.crc32c);
  }
  return out;
}

Status DecodeFooter(std::string_view footer, std::vector<std::string>* labels,
                    std::vector<ArchiveEntry>* entries) {
  // Bounds-checked decode: a truncated footer with a forged CRC fails
  // instead of reading garbage, and the reserves below never exceed what
  // the remaining bytes could encode.
  util::ByteReader cur(footer, StatusCode::kDataLoss, "archive footer");
  labels->clear();
  entries->clear();

  uint32_t num_labels = 0;
  LONGDP_RETURN_NOT_OK(cur.ReadU32(&num_labels));
  labels->reserve(std::min<size_t>(num_labels, cur.remaining() / 4));
  for (uint32_t i = 0; i < num_labels; ++i) {
    uint32_t len = 0;
    LONGDP_RETURN_NOT_OK(cur.ReadU32(&len));
    std::string_view label;
    LONGDP_RETURN_NOT_OK(cur.ReadView(len, &label));
    labels->emplace_back(label);
  }

  uint32_t num_entries = 0;
  LONGDP_RETURN_NOT_OK(cur.ReadU32(&num_entries));
  entries->reserve(
      std::min<size_t>(num_entries, cur.remaining() / kEntryBytes));
  for (uint32_t i = 0; i < num_entries; ++i) {
    ArchiveEntry e;
    uint32_t kind = 0;
    int64_t window_k = 0;
    int64_t alphabet = 0;
    LONGDP_RETURN_NOT_OK(cur.ReadU32(&kind));
    LONGDP_RETURN_NOT_OK(cur.ReadU32(&e.label_id));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.t));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&window_k));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&alphabet));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.npad));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.true_n));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.count));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.rounds));
    LONGDP_RETURN_NOT_OK(cur.ReadU64(&e.offset));
    LONGDP_RETURN_NOT_OK(cur.ReadU64(&e.bytes));
    LONGDP_RETURN_NOT_OK(cur.ReadU32(&e.crc32c));
    const std::string at = " in archive entry " + std::to_string(i);
    if (kind < static_cast<uint32_t>(EntryKind::kWindow) ||
        kind > static_cast<uint32_t>(EntryKind::kCohort)) {
      return Status::DataLoss("unknown entry kind " + std::to_string(kind) +
                              at);
    }
    e.kind = static_cast<EntryKind>(kind);
    if (e.label_id >= labels->size()) {
      return Status::DataLoss("label id out of range" + at);
    }
    if (window_k < 0 || window_k > util::kMaxWindow || alphabet < 0 ||
        alphabet > (1 << 24)) {
      return Status::DataLoss("implausible window/alphabet field" + at);
    }
    e.window_k = static_cast<int>(window_k);
    e.alphabet = static_cast<int>(alphabet);
    if (e.count < 0 || e.rounds < 0 ||
        (e.kind != EntryKind::kCohort && e.rounds != 0)) {
      return Status::DataLoss("negative or misplaced size field" + at);
    }
    if (e.bytes != ExpectedPayloadBytes(e)) {
      return Status::DataLoss("payload length disagrees with entry shape" +
                              at);
    }
    entries->push_back(e);
  }
  if (!cur.AtEnd()) {
    return Status::DataLoss("trailing bytes after archive footer index");
  }
  return Status::OK();
}

}  // namespace archive
}  // namespace longdp
