#include "repl/replayer.h"

#include <utility>

#include "obs/timeline.h"
#include "util/logging.h"

namespace cloudybench::repl {

namespace {
using storage::LogRecord;
using storage::LogRecordType;
}  // namespace

const char* ReplayModeName(ReplayMode mode) {
  switch (mode) {
    case ReplayMode::kSequential:
      return "sequential";
    case ReplayMode::kParallel:
      return "parallel";
    case ReplayMode::kRemoteInvalidation:
      return "remote-invalidation";
  }
  return "?";
}

Replayer::Replayer(sim::Environment* env, storage::TableSet* replica_tables,
                   net::Link* ship_link, sim::SlotResource* replay_cpu,
                   ReplayConfig config)
    : env_(env),
      tables_(replica_tables),
      ship_link_(ship_link),
      replay_cpu_(replay_cpu),
      config_(config) {
  CB_CHECK(env != nullptr);
  CB_CHECK(replica_tables != nullptr);
  CB_CHECK(ship_link != nullptr);
  CB_CHECK(replay_cpu != nullptr);
  switch (config_.mode) {
    case ReplayMode::kSequential:
      lanes_ = 1;
      break;
    case ReplayMode::kParallel:
      lanes_ = config_.parallel_lanes;
      CB_CHECK_GT(lanes_, 0);
      break;
    case ReplayMode::kRemoteInvalidation:
      // One lane per record is overkill; 16 lanes with a micro apply cost
      // is indistinguishable at our message rates.
      lanes_ = 16;
      break;
  }
  lane_queues_.resize(static_cast<size_t>(lanes_));
  lane_waiters_.assign(static_cast<size_t>(lanes_), nullptr);
  lane_tracks_.assign(static_cast<size_t>(lanes_), 0);
  for (int i = 0; i < lanes_; ++i) {
    env_->Spawn(LaneLoop(i));
  }
  env_->Spawn(ShipLoop());
  env_->Spawn(DeliverLoop());
}

Replayer::~Replayer() = default;

uint64_t Replayer::LaneTrack(obs::TraceRecorder& recorder, int lane) {
  if (trace_epoch_ != recorder.epoch()) {
    lane_tracks_.assign(lane_tracks_.size(), 0);
    trace_epoch_ = recorder.epoch();
  }
  uint64_t& track = lane_tracks_[static_cast<size_t>(lane)];
  if (track == 0) {
    track = recorder.NewTrack();
    recorder.SetTrackName(track, "replay/lane" + std::to_string(lane));
  }
  return track;
}

int Replayer::LaneFor(const LogRecord& record) const {
  if (lanes_ == 1) return 0;
  uint64_t h = static_cast<uint64_t>(record.key) * 0x9e3779b97f4a7c15ULL ^
               static_cast<uint64_t>(record.table);
  return static_cast<int>(h % static_cast<uint64_t>(lanes_));
}

void Replayer::Ship(std::span<const LogRecord> records) {
  // All records of one Ship() call share a staging instant, so their
  // shipping-batch boundary is computed once.
  int64_t depart = env_->Now().us;
  if (config_.ship_interval.us > 0) {
    int64_t interval = config_.ship_interval.us;
    depart = (depart / interval + 1) * interval;
  }
  for (const LogRecord& record : records) {
    last_shipped_lsn_ = record.lsn;
    if (record.type == LogRecordType::kCommit) {
      // Commit records carry no data; they are considered applied once every
      // preceding record is (the watermark handles that automatically).
      continue;
    }
    pending_.push_back(PendingEntry{record.lsn, false});
    ++backlog_;
    if (backlog_ >= backlog_hwm_next_) {
      // Journal each doubling of the backlog high-water mark: an
      // O(log n)-event trail of replication falling behind.
      obs::EmitEvent(env_, scope_, "replay.backlog_hwm", "",
                     static_cast<double>(backlog_));
      while (backlog_hwm_next_ <= backlog_) backlog_hwm_next_ *= 2;
    }
    staged_.push_back(ShipEntry{record, depart, next_ticket_++});
  }
  // One wake per Ship() call: Ship is synchronous, so the ship loop cannot
  // run between the pushes above — waking per record would be idempotent
  // noise.
  if (ship_waiter_ != nullptr && !staged_.empty()) ship_waiter_->Complete(0);
}

sim::Process Replayer::ShipLoop() {
  for (;;) {
    if (staged_.empty()) {
      sim::Waiter waiter(env_);
      ship_waiter_ = &waiter;
      co_await waiter;
      ship_waiter_ = nullptr;
      continue;
    }
    int64_t depart = staged_.front().depart_us;
    int64_t now = env_->Now().us;
    if (now < depart) {
      co_await env_->Delay(sim::SimTime{depart - now});
      continue;
    }
    // A wave: every staged record that is due reserves link bandwidth FIFO
    // at this instant — the same serialization the per-record coroutines
    // used to get from the link's virtual queue, minus the coroutines.
    while (!staged_.empty() && staged_.front().depart_us <= env_->Now().us) {
      int64_t bytes = staged_.front().rec.size_bytes();
      sim::SimTime arrive;
      if (!ship_link_->TryReserveTransfer(bytes, &arrive)) {
        // Blackholed link: take the awaitable form, which parks until the
        // fault clears and then reserves. No reference into the ship ring
        // is held across the suspension (Ship() may grow it meanwhile).
        arrive = co_await ship_link_->ReserveTransfer(bytes);
      }
      if (config_.extra_hop_latency.us > 0) {
        // Separate log-service -> page-service tier (CDB2's long path).
        arrive = arrive + config_.extra_hop_latency;
      }
      inflight_.push_back(InflightEntry{staged_.front().rec, arrive.us,
                                        staged_.front().ticket});
      staged_.pop_front();
      if (deliver_waiter_ != nullptr) deliver_waiter_->Complete(0);
    }
  }
}

sim::Process Replayer::DeliverLoop() {
  for (;;) {
    if (inflight_.empty()) {
      sim::Waiter waiter(env_);
      deliver_waiter_ = &waiter;
      co_await waiter;
      deliver_waiter_ = nullptr;
      continue;
    }
    int64_t arrive = inflight_.front().arrive_us;
    int64_t now = env_->Now().us;
    if (now < arrive) {
      co_await env_->Delay(sim::SimTime{arrive - now});
      continue;
    }
    const InflightEntry& head = inflight_.front();
    int lane = LaneFor(head.rec);
    lane_queues_[static_cast<size_t>(lane)].push_back(
        LaneEntry{head.rec, head.ticket});
    inflight_.pop_front();
    if (lane_waiters_[static_cast<size_t>(lane)] != nullptr) {
      lane_waiters_[static_cast<size_t>(lane)]->Complete(0);
    }
  }
}

void Replayer::SetStalled(bool stalled) {
  if (stalled == stalled_) return;
  stalled_ = stalled;
  obs::EmitEvent(env_, scope_, stalled ? "replay.stall" : "replay.resume", "",
                 static_cast<double>(backlog_));
  if (!stalled_) {
    // Wake every parked lane; swap first — a resumed lane re-parks on a
    // fresh waiter if another stall window opens at the same instant.
    std::vector<sim::Waiter*> parked;
    parked.swap(stall_waiters_);
    for (sim::Waiter* w : parked) w->Complete(0);
  }
}

sim::Process Replayer::LaneLoop(int lane) {
  auto& queue = lane_queues_[static_cast<size_t>(lane)];
  for (;;) {
    while (stalled_) {
      sim::Waiter gate(env_);
      stall_waiters_.push_back(&gate);
      co_await gate;
    }
    if (queue.empty()) {
      sim::Waiter waiter(env_);
      lane_waiters_[static_cast<size_t>(lane)] = &waiter;
      co_await waiter;
      lane_waiters_[static_cast<size_t>(lane)] = nullptr;
      continue;
    }
    LaneEntry entry = queue.front();
    queue.pop_front();
    {
      // One thread-local recorder lookup per record; the track is resolved
      // only when tracing is live.
      obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
      obs::TraceRecorder* live = recorder.enabled() ? &recorder : nullptr;
      obs::CachedSpanScope apply_span(
          live, env_, live != nullptr ? LaneTrack(recorder, lane) : 0,
          obs::Layer::kReplay, "replay.apply");
      co_await replay_cpu_->Consume(config_.apply_cost);
      ApplyToTables(entry.rec);
    }
    RecordLag(entry.rec);
    MarkApplied(entry.ticket);
    ++records_applied_;
  }
}

void Replayer::MarkApplied(uint64_t ticket) {
  PendingEntry& slot =
      pending_[static_cast<size_t>(ticket - pending_head_ticket_)];
  slot.applied = true;
  --backlog_;
  // Advance the watermark past every contiguously applied head entry.
  while (!pending_.empty() && pending_.front().applied) {
    pending_.pop_front();
    ++pending_head_ticket_;
  }
}

int64_t Replayer::arena_grows() const {
  int64_t total = staged_.grows() + inflight_.grows() + pending_.grows();
  for (const auto& lane : lane_queues_) total += lane.grows();
  return total;
}

void Replayer::ApplyToTables(const LogRecord& record) {
  storage::SyntheticTable* table = tables_->FindById(record.table);
  CB_CHECK(table != nullptr) << "replica missing table " << record.table;
  switch (record.type) {
    case LogRecordType::kInsert: {
      util::Status s = table->Insert(record.after);
      CB_CHECK(s.ok()) << "replica insert: " << s;
      break;
    }
    case LogRecordType::kUpdate: {
      util::Status s = table->Update(record.after);
      CB_CHECK(s.ok()) << "replica update: " << s;
      break;
    }
    case LogRecordType::kDelete: {
      util::Status s = table->Delete(record.key);
      CB_CHECK(s.ok()) << "replica delete: " << s;
      break;
    }
    case LogRecordType::kCommit:
      break;
  }
}

void Replayer::RecordLag(const LogRecord& record) {
  double lag_ms = (env_->Now() - record.commit_time).ToMillis();
  switch (record.type) {
    case LogRecordType::kInsert:
      insert_lag_.Add(lag_ms);
      break;
    case LogRecordType::kUpdate:
      update_lag_.Add(lag_ms);
      break;
    case LogRecordType::kDelete:
      delete_lag_.Add(lag_ms);
      break;
    case LogRecordType::kCommit:
      break;
  }
}

int64_t Replayer::applied_lsn() const {
  // Applied head entries are popped eagerly, so the front of the pending
  // window is always the oldest *unapplied* record.
  if (pending_.empty()) return last_shipped_lsn_;
  return pending_.front().lsn - 1;
}

}  // namespace cloudybench::repl
