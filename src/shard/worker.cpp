#include "shard/worker.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include <csignal>
#include <unistd.h>

#include "shard/wire.hpp"

namespace bprc::shard {

void execute_index_range(const fault::CampaignConfig& campaign,
                         const std::vector<fault::TortureRun>& runs,
                         IndexRange range, std::size_t max_detailed_failures,
                         unsigned jobs, const RecordSink& sink) {
  std::size_t detailed = 0;
  fault::execute_runs(
      runs, range.begin, range.end, campaign.run_deadline, jobs,
      [&](std::size_t index, const ConsensusRunResult&,
          fault::OutcomeRecord&& record) {
        if (record.detail.has_value()) {
          if (detailed >= max_detailed_failures) {
            record.detail.reset();
          } else {
            ++detailed;
          }
        }
        return sink(index, std::move(record));
      });
}

void worker_process_main(int fd, const fault::CampaignConfig& campaign,
                         std::vector<fault::TortureRun>& runs,
                         IndexRange range,
                         std::chrono::milliseconds heartbeat_interval) {
  // The parent's cooperative SIGINT/SIGTERM handlers only set a flag this
  // process never polls; restore the defaults so signals terminate the
  // worker and the coordinator sees a normal EOF.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  // A dead coordinator must surface as write_frame() == false, not as a
  // SIGPIPE death the next supervisor generation would grade as a crash.
  std::signal(SIGPIPE, SIG_IGN);

  std::mutex write_mutex;  // serializes outcome and heartbeat frames
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::atomic<bool> coordinator_gone{false};

  std::thread heartbeat([&] {
    std::unique_lock<std::mutex> lk(hb_mutex);
    for (;;) {
      hb_cv.wait_for(lk, heartbeat_interval, [&] { return hb_stop; });
      if (hb_stop) return;
      std::lock_guard<std::mutex> wl(write_mutex);
      if (!write_frame(fd, MsgType::kHeartbeat, "")) {
        coordinator_gone.store(true);
        return;
      }
    }
  });

  bool ok = true;
  // jobs=1: the exact serial trial loop. Worker-level parallelism comes
  // from running several of these processes side by side.
  execute_index_range(
      campaign, runs, range, campaign.max_failures, /*jobs=*/1,
      [&](std::size_t index, fault::OutcomeRecord&& record) {
        if (coordinator_gone.load()) {
          ok = false;
          return false;
        }
        const std::string payload = serialize_record(index, record);
        std::lock_guard<std::mutex> wl(write_mutex);
        if (!write_frame(fd, MsgType::kOutcome, payload)) {
          ok = false;
          return false;
        }
        return true;
      });

  {
    std::lock_guard<std::mutex> lk(hb_mutex);
    hb_stop = true;
  }
  hb_cv.notify_all();
  heartbeat.join();

  if (ok) {
    std::lock_guard<std::mutex> wl(write_mutex);
    ok = write_frame(fd, MsgType::kDone, "");
  }
  ::close(fd);
  // _exit, not exit: a forked child must not run the parent's atexit
  // hooks or flush its inherited stdio buffers twice.
  ::_exit(ok ? 0 : 1);
}

}  // namespace bprc::shard
