// Worker side of the sharded campaign service: executes one contiguous
// index range of an enumerated campaign matrix and emits an
// OutcomeRecord per index, in index order.
//
// Two callers share the range loop:
//   * run_shard / `bprc_torture --shard i/k` collects records in-process
//     into a ShardFile;
//   * the coordinator's forked children stream them as kOutcome frames
//     over a pipe, with a heartbeat thread proving liveness while a
//     long trial runs (worker_process_main).
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

#include "fault/campaign.hpp"
#include "shard/supervise.hpp"

namespace bprc::shard {

/// Delivered per executed index; return false to stop early.
using RecordSink =
    std::function<bool(std::size_t, fault::OutcomeRecord&&)>;

/// Executes `runs[range.begin, range.end)` at the given TrialExecutor
/// jobs level (forked workers pass 1 — they parallelize by process, not
/// by thread; standalone `--shard` passes the campaign's own jobs) and
/// hands each reduced record to `sink` in index order, through the
/// campaign's own trial loop (fault::execute_runs). At most
/// `max_detailed_failures` records keep their TortureFailure detail;
/// later failures still count and chain, they just can't be shrunk — the
/// campaign fold stops after that many failures anyway, so nothing
/// downstream ever needs them.
void execute_index_range(const fault::CampaignConfig& campaign,
                         const std::vector<fault::TortureRun>& runs,
                         IndexRange range, std::size_t max_detailed_failures,
                         unsigned jobs, const RecordSink& sink);

/// Forked worker main. Streams the range as kOutcome frames on `fd`,
/// interleaved with kHeartbeat frames every `heartbeat_interval` from a
/// companion thread (one mutex serializes the two writers), then a kDone
/// frame. Never returns: _exit(0) on completion, _exit(1) if the
/// coordinator is gone (write failure). Resets SIGINT/SIGTERM to their
/// defaults — the parent's cooperative handlers must not keep a child
/// alive — and ignores SIGPIPE so a dead coordinator surfaces as a
/// write error, not a signal death the supervisor would misread as a
/// trial crash.
[[noreturn]] void worker_process_main(
    int fd, const fault::CampaignConfig& campaign,
    std::vector<fault::TortureRun>& runs, IndexRange range,
    std::chrono::milliseconds heartbeat_interval);

}  // namespace bprc::shard
