// Wire format of the sharded campaign service.
//
// Two layers share one vocabulary:
//
//   * a length-prefixed *frame* protocol for the coordinator/worker pipes
//     (src/shard/coordinator.cpp forks workers and reads their streams):
//     1 type byte + u32le payload length + payload. A worker that is
//     SIGKILLed mid-write leaves at most one partial trailing frame,
//     which the FrameReader simply never completes — the coordinator
//     resumes the dead worker's range from the first index it has no
//     complete frame for;
//
//   * a line-oriented *record* text (the frame payloads, and the body of
//     `.bprc-shard` files written by `bprc_torture --shard i/k`): one
//     `outcome` line per executed spec index carrying the per-run digest
//     and classification, plus — for failures only — an embedded block
//     with the full recorded trace, so the merge side can shrink and
//     persist artifacts without re-executing anything. Records and
//     `.bprc-shard` files are read with the shared line-record codec
//     (util/line_record.hpp); unknown keys are refused, since both ends
//     are the same binary.
//
// A shard never ships raw schedules for passing runs: the campaign
// digest is a chain of per-run digests (fault::outcome_digest), so 8
// bytes per run is enough for the merged summary_digest to come out
// byte-identical to a serial sweep.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/campaign.hpp"

namespace bprc::shard {

enum class MsgType : std::uint8_t {
  kOutcome = 1,    ///< payload: one serialized record
  kHeartbeat = 2,  ///< empty payload; liveness proof while a trial runs
  kDone = 3,       ///< empty payload; the worker finished its range
};

struct Frame {
  MsgType type = MsgType::kHeartbeat;
  std::string payload;
};

/// Writes one frame with a retrying write loop (EINTR-safe). Returns
/// false on any other error (EPIPE foremost: the coordinator died).
/// Callers with multiple writing threads serialize calls themselves.
bool write_frame(int fd, MsgType type, const std::string& payload);

/// Incremental frame decoder over a pipe byte stream.
class FrameReader {
 public:
  void feed(const char* data, std::size_t len) { buf_.append(data, len); }

  /// Next complete frame, or nullopt if more bytes are needed. A partial
  /// trailing frame (worker killed mid-write) stays pending forever —
  /// exactly the "never delivered" semantics the resume logic wants.
  std::optional<Frame> next();

 private:
  std::string buf_;
};

/// One executed spec index, reduced to its fold unit.
using IndexedRecord = std::pair<std::size_t, fault::OutcomeRecord>;

/// Serializes (index, record) as the record text block.
std::string serialize_record(std::size_t index,
                             const fault::OutcomeRecord& record);

/// Parses a single record block (one frame payload). nullopt + err on
/// malformed input.
std::optional<IndexedRecord> parse_record(const std::string& text,
                                          std::string* err);

/// A `.bprc-shard` file: the records of one contiguous index range of a
/// campaign, plus enough header to refuse merging shards of different
/// campaigns.
struct ShardFile {
  std::uint64_t fingerprint = 0;   ///< fault::campaign_matrix_fingerprint
  std::uint64_t total_runs = 0;    ///< full matrix size (all shards)
  std::uint64_t max_failures = 0;  ///< fold early-stop threshold
  std::uint64_t skipped_crash_cells = 0;  ///< whole-matrix skip count
  /// Whole-matrix kSafe skip count (campaign.hpp). Serialized only when
  /// nonzero, so shard files from atomic-only campaigns — including
  /// every file written before the weak-register lane existed — keep
  /// their historical bytes.
  std::uint64_t skipped_safe_cells = 0;
  /// Whole-matrix space-insensitivity skip count (campaign.hpp). Same
  /// contract: serialized only when nonzero, so single-budget campaigns
  /// — every file written before the space lane existed — keep their
  /// historical bytes.
  std::uint64_t skipped_space_cells = 0;
  std::size_t begin = 0;           ///< executed index range [begin, end)
  std::size_t end = 0;
  std::vector<IndexedRecord> records;  ///< ascending, covering [begin, end)
};

std::string serialize_shard_file(const ShardFile& shard);
std::optional<ShardFile> parse_shard_file(const std::string& text,
                                          std::string* err);

/// File wrappers; save returns false on I/O failure.
bool save_shard_file(const std::string& path, const ShardFile& shard);
std::optional<ShardFile> load_shard_file(const std::string& path,
                                         std::string* err);

}  // namespace bprc::shard
