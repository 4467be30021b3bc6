// swat::Server — the asynchronous continuous-batching serving front-end:
// SLO classes, deadline-aware shedding, a stall watchdog, and a pool of
// engine replicas behind one admission queue.
//
//   submit(request) ──▶ class-aware AdmissionQueue ──▶ scheduler thread
//     │ interactive first, bulk aged in;                 │ deadline shed,
//     │ kShedBulk sheds bulk at the watermark            │ BatchFormer cuts
//     ▼                                                  ▼
//   Ticket (std::future) ◀── promise ──── replica 0..N-1 (BatchExecutor +
//                                         Engine): least backlog first,
//                                         idle replicas steal
//
// Batching: the scheduler pops admitted requests — interactive first, one
// bulk request after every bulk_aging_interval interactive pops — into an
// incremental BatchFormer. A batch is cut at max_batch_requests /
// max_batch_tokens, when its predicted service time (BatchCostModel)
// reaches max_batch_latency, or when the arrival queue goes empty.
//
// Replica pool: each cut batch goes to the live replica with the smallest
// predicted backlog (ties to the lowest index). Each replica owns a
// BatchExecutor + Engine and packs its own weights, or, with
// share_weight_pack, streams replica 0's read-only pack. A worker drains
// its own queue and steals the newest queued batch from the most
// backlogged replica when it runs dry. replica_queue_depth bounds
// claim-ahead; at the default 0 the scheduler claims only when a replica
// is idle, which keeps the single-engine claim order exactly.
//
// Overload and failure (docs/ARCHITECTURE.md "Overload & failure
// semantics"):
//   * Admission is bounded by queue_capacity: kBlock parks the submitter,
//     kReject fails the ticket, kShedBulk rejects bulk at shed_watermark
//     and interactive only at full capacity.
//   * Malformed input (wrong shape, a NaN or an infinity) fails its own
//     ticket at submit and never joins a batch.
//   * Deadlines: a ticket the cost model predicts cannot meet its deadline
//     fails with DeadlineExceeded before compute — at submit, or at claim
//     once waiting has eaten the slack. A request served late still
//     returns its result and is counted deadline_missed.
//   * Watchdog (watchdog_multiplier > 0): a replica whose batch overruns
//     watchdog_grace + watchdog_multiplier * predicted is flagged stalled
//     in health() and stats().
//   * An executor failure fails that batch's tickets only. A replica death
//     rejects the batch it had claimed, quarantines the replica and hands
//     its queue to the survivors. Only when the last replica (or the
//     scheduler) dies does the server close admission, reject every
//     pending ticket and report kFailed.
//
// Determinism: which batch and replica serve a request depends on timing;
// its output and counters do not. Every served request is bit-identical
// to a solo Encoder::forward run for any SWAT_THREADS, arrival order,
// class mix, replica count and batch cut (tests/test_server.cpp,
// tests/test_replica_pool.cpp). batch_index, queue_delay and turnaround
// are timing fields outside that guarantee.
//
// Shutdown: shutdown() (and the destructor) closes admission, serves
// everything already admitted and joins all threads; every ticket
// resolves, none hangs.
//
// submit_many admits a burst in order, one ticket per request, with no
// all-or-nothing transaction: under kReject / kShedBulk earlier tickets
// may serve while later ones are shed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/concurrent_queue.hpp"
#include "common/topology.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/executor.hpp"
#include "runtime/stats.hpp"

namespace swat {

/// Where replica compute runs (ServerOptions::placement).
enum class PlacementPolicy {
  /// Every replica's kernels fan out on the process-wide ThreadPool —
  /// exactly the pre-placement behavior, bit- and behavior-identical.
  kShared,
  /// Carve the allowed cpuset (topology discovery ∩ process affinity ∩
  /// SWAT_CPUSET) into one contiguous, locality-ordered core group per
  /// replica; each replica gets its own ThreadPool pinned to its group,
  /// packs its weights on it (first-touch NUMA placement), and runs its
  /// batches on it. Falls back to kShared when there are fewer allowed
  /// CPUs than replicas. Results are bit-identical to kShared — the pool
  /// partition never changes any reduction order.
  kPartitioned,
};

struct ServerOptions {
  BatchingOptions batching;
  /// Bound on requests admitted but not yet claimed by the scheduler.
  std::size_t queue_capacity = 1024;
  /// What submit() does when the admission queue is full: park the caller
  /// (kBlock, backpressure), fail the ticket (kReject, load shedding), or
  /// shed by class (kShedBulk: bulk rejected at shed_watermark,
  /// interactive only at full capacity, nothing ever blocks).
  OverflowPolicy admission = OverflowPolicy::kBlock;
  /// Longest an admitted request may sit in a pending partial batch while
  /// the arrival queue stays busy. The queue-empty flush already bounds the
  /// wait in light traffic; under sustained load the queue never empties,
  /// and without this cap a request in a sparse length class could wait
  /// unboundedly for bucket-mates that never come. Zero disables.
  Seconds max_batch_wait{0.010};
  /// kShedBulk only: the fraction of queue_capacity at which bulk is
  /// shed. The headroom above it is reserved for interactive admission.
  double shed_watermark = 0.75;
  /// Serve one waiting bulk request after this many consecutive
  /// interactive pops — the aging knob that keeps priority admission from
  /// starving bulk entirely.
  std::size_t bulk_aging_interval = 4;
  /// Deadline applied to requests that do not carry their own
  /// (InferenceRequest::deadline == 0). Zero means no default.
  Seconds default_deadline{0.0};
  /// Stall threshold multiplier: the watchdog flags a replica stalled
  /// once its executing batch's age exceeds watchdog_grace +
  /// watchdog_multiplier * predicted service time (BatchCostModel). Zero
  /// disables the watchdog; when enabled it must be >= 1 (a threshold
  /// below the prediction itself would flag every healthy batch).
  double watchdog_multiplier = 0.0;
  /// Absolute floor added to the stall threshold, absorbing host
  /// scheduling noise the accelerator-time prediction knows nothing about.
  Seconds watchdog_grace{0.25};
  /// Engine replicas behind the pool. 1 (the default) is bit- and
  /// behavior-compatible with the single-engine server; N > 1 executes up
  /// to N batches concurrently, each on its own BatchExecutor + Engine.
  std::size_t num_replicas = 1;
  /// When true, replicas 1..N-1 adopt replica 0's packed panel-major
  /// weight pack read-only instead of packing private copies — weight
  /// memory stays 1x instead of Nx (packed_weight_floats() shows the
  /// difference). Results are bit-identical either way: replicas are
  /// built from the same config and weight_seed, so the shared panels
  /// hold exactly the floats the private ones would.
  bool share_weight_pack = false;
  /// Batches the dispatcher may queue on one replica beyond the batch it
  /// is executing. At the default 0 the scheduler claims from the
  /// admission queue only when a replica is fully idle — requests wait in
  /// the class-aware admission queue, preserving the single-engine
  /// interactive-first claim order and watermark backpressure exactly.
  /// Depths >= 1 pipeline batch formation with execution (higher
  /// throughput under load) and are what gives work stealing something
  /// to steal; the cost is that a claimed-ahead request can no longer be
  /// reordered by class or shed at admission.
  std::size_t replica_queue_depth = 0;
  /// Execution placement of the replica pool. kShared (default) keeps
  /// every replica on the process-wide thread pool; kPartitioned gives
  /// each replica a pinned per-core-group pool and replica-local weight
  /// packs (see PlacementPolicy). Interacts with share_weight_pack: a
  /// shared pack under kPartitioned lives on replica 0's NUMA node and
  /// is read cross-node by the others — the memory-vs-locality tradeoff
  /// (docs/ARCHITECTURE.md "Placement & affinity").
  PlacementPolicy placement = PlacementPolicy::kShared;
  /// Rejects inconsistent options with actionable messages
  /// (std::invalid_argument).
  void validate() const;
};

class Server {
 public:
  /// A per-request claim ticket: resolves to the request's result, or
  /// rethrows the rejection/failure that prevented serving it
  /// (DeadlineExceeded, FaultInjectedError, std::runtime_error shed...).
  using Ticket = std::future<RequestResult>;

  /// Validates `cfg` (via the engines) and `opt`, compiles the weights
  /// (one pack per replica, or one shared pack with share_weight_pack),
  /// and starts the replica workers, scheduler, and (if enabled) watchdog
  /// threads.
  explicit Server(model::EncoderConfig cfg, ServerOptions opt = {});
  ~Server();  // shutdown()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one request under its SLO class. Thread-safe. The ticket always
  /// resolves: with the result once its batch ran, or with an exception if
  /// the request was malformed (wrong shape, or a NaN or infinity in the
  /// input), shed at admission, predicted (or observed) to miss its
  /// deadline, failed by its batch's executor or replica, or submitted
  /// after shutdown.
  Ticket submit(InferenceRequest request);

  /// Admit a burst. Equivalent to submit() in order; with kReject or
  /// kShedBulk admission, earlier tickets in the burst may serve while
  /// later ones reject (see the partial-reject semantics above). Every
  /// returned ticket resolves exactly once.
  std::vector<Ticket> submit_many(std::vector<InferenceRequest> requests);

  /// Block until every request admitted so far has resolved — served,
  /// shed, or rejected. New submissions during drain() extend the wait;
  /// a concurrent shutdown() (or scheduler/pool failure) that discards
  /// queued requests resolves their tickets with clean rejections, so
  /// drain() returns instead of waiting on work that will never run.
  void drain();

  /// Stop admission, serve everything already admitted (scheduler first,
  /// then every replica's queue), join all threads. Idempotent and
  /// thread-safe. After shutdown, submit() returns rejected tickets.
  void shutdown();

  /// Snapshot of the cumulative totals over everything served so far.
  /// Unlike the synchronous Runtime, batches complete in scheduler order,
  /// so model_flops (a non-associative double sum) may differ from a
  /// caller's own summation order by rounding; all integer fields are
  /// exact. Only SERVED requests are accumulated — shed and failed
  /// tickets are ledgered in stats() instead.
  RuntimeTotals totals() const;

  /// Snapshot of the serving ledger: per-class
  /// submitted/admitted/served/shed/deadline counters, per-replica
  /// dispatch/serve/steal/quarantine counters (stats().replicas[i]),
  /// queue depth, oldest-pending age, batches, watchdog stall episodes.
  /// The identities it obeys are documented on ClassStats and
  /// ReplicaClassStats (runtime/stats.hpp): per replica,
  /// dispatched == served + failed + executing-now, and replica
  /// served/deadline_missed sums match the front-end class counters.
  ServerStats stats() const;

  /// The watchdog's liveness snapshot, per replica and rolled up:
  /// kHealthy / kStalled (an executing batch overran the stall threshold,
  /// or a replica is quarantined while the pool keeps serving) / kFailed
  /// (serving stopped: scheduler died or every replica died — all
  /// tickets cleanly rejected) / kShutdown, plus per-replica executing
  /// batch ages (health().replicas[i]) and the admission backlog.
  ServerHealth health() const;

  /// Compiled plans across all replica plan caches (sums over replicas).
  std::size_t plan_count() const;
  std::size_t plan_arena_floats() const;
  /// Packed-weight floats held across replicas: N private packs sum to
  /// N x the single-engine footprint; with share_weight_pack the shared
  /// pack is counted once (sharing replicas report 0).
  std::size_t packed_weight_floats() const;
  /// Resident packed-weight bytes across replicas (floats x
  /// dtype_bytes(pack_dtype)): the footprint EncoderConfig::pack_dtype =
  /// Dtype::kFp16 halves, and share_weight_pack divides by N.
  std::size_t packed_weight_bytes() const;
  const model::Encoder& encoder() const;
  const ServerOptions& options() const { return opt_; }

 private:
  struct Pending {
    InferenceRequest request;
    std::promise<RequestResult> promise;
    std::chrono::steady_clock::time_point admitted;
    Seconds deadline{};     ///< effective deadline (0 = none)
    std::uint64_t seq = 0;  ///< admission sequence (oldest-pending ledger)
    /// When the scheduler claimed it into the BatchFormer: the
    /// max_batch_wait age cut is timed from here, not from admission.
    std::chrono::steady_clock::time_point claimed;
  };

  /// A cut batch bound to its member tickets — the unit the dispatcher
  /// places, a replica queue holds, and a worker claims or steals.
  struct ReadyBatch {
    BatchPlanEntry entry;
    std::vector<Pending> members;  ///< one per entry.request_indices slot
    Seconds predicted{};           ///< cost-model dispatch price
    bool stolen = false;           ///< claimed off another replica's queue
  };

  /// One engine replica. Fields are grouped by the lock that guards them;
  /// the three domains are never held together.
  struct Replica {
    // Immutable after construction. `pool` is declared before `executor`
    // so destruction tears the executor down first — an engine never
    // outlives the pool its runs are bound to. Null pool / empty
    // core_group = shared placement.
    std::unique_ptr<ThreadPool> pool;  ///< pinned pool (kPartitioned only)
    CpuSet core_group;                 ///< the CPUs `pool` pins to
    std::unique_ptr<BatchExecutor> executor;
    std::thread worker;
    /// This replica's worker thread pinning itself at the top of
    /// replica_loop (0 or 1). stats() adds the pool's own
    /// pinned_workers() count on top when mirroring into ReplicaStats,
    /// so late-arriving pin confirmations are never undercounted.
    std::atomic<int> pinned_threads{0};

    // --- guarded by pool_mutex_ ---
    std::deque<ReadyBatch> queue;  ///< dispatched, not yet claimed
    double backlog_seconds = 0.0;  ///< predicted seconds queued + executing
    bool executing = false;        ///< worker holds a claimed batch
    bool dead = false;             ///< quarantined; takes no more batches

    // --- guarded by watch_mutex_ (the watchdog's per-replica slot) ---
    bool exec_active = false;
    bool stall_flagged = false;  ///< this episode already counted
    std::chrono::steady_clock::time_point exec_start;
    Seconds exec_predicted{};

    // --- lock-free mirrors for health()/stats() ---
    std::atomic<bool> stalled_now{false};
    std::atomic<std::int64_t> stalls{0};
  };

  void scheduler_loop();
  /// Park until some live replica has dispatch room (or the pool died) —
  /// the claim gate that keeps requests in the class-aware admission
  /// queue instead of claimed-ahead FIFO replica queues.
  void wait_for_dispatch_room();
  /// pool_mutex_ held: can `r` accept a dispatched batch right now?
  bool replica_has_room(const Replica& r) const;
  /// Price the batch, extract its members from `inflight`, and place it
  /// on the least-backlogged live replica with room (blocking until one
  /// exists). Throws — scheduler-fatal — on the "dispatch.place" crossing
  /// or when every replica is dead; members are back in `inflight` so
  /// scheduler_failed rejects them.
  void dispatch_batch(BatchPlanEntry entry,
                      std::map<std::size_t, Pending>& inflight);
  /// Replica worker body: claim (or steal) and execute until the pool
  /// stops and no work remains, or this replica dies.
  void replica_loop(std::size_t r);
  /// Claim the next batch for replica `r`: own queue first, else steal
  /// the newest queued batch from the most-backlogged live replica, else
  /// wait. Empty optional once pool_stop_ is set and no work remains.
  std::optional<ReadyBatch> next_batch(std::size_t r);
  /// Execute a claimed batch on replica `r` and resolve its tickets.
  /// Executor failures are contained here (fail the batch, replica keeps
  /// serving); nothing escapes short of replica death.
  void run_on_replica(std::size_t r, ReadyBatch& batch);
  /// Credit the batch's predicted seconds back to `r`'s backlog and mark
  /// it idle; wakes the dispatcher (room) and drain().
  void retire_batch(std::size_t r, const ReadyBatch& batch);
  /// Replica `r` died claiming/running `batch`: reject exactly that
  /// batch's tickets, quarantine the replica, redistribute its queued
  /// batches to survivors — or, if it was the last live replica, close
  /// admission and reject everything still pending.
  void replica_failed(std::size_t r, ReadyBatch batch,
                      std::exception_ptr error) noexcept;
  /// The scheduler died: close admission, cleanly reject every in-flight
  /// and still-queued ticket with `error`, mark health kFailed. Nothing
  /// hangs; drain() returns.
  void scheduler_failed(std::exception_ptr error,
                        std::map<std::size_t, Pending>& inflight) noexcept;
  void watchdog_loop();
  void exec_begin(std::size_t r, Seconds predicted);
  void exec_end(std::size_t r);

  ServerOptions opt_;
  /// Prices requests for the latency budget, deadline slack, dispatch
  /// placement, and the watchdog stall threshold.
  std::unique_ptr<BatchCostModel> cost_model_;
  AdmissionQueue<Pending, kPriorityClasses> queue_;
  /// The engine replicas. The vector itself is immutable after
  /// construction (workers index into it); per-replica fields follow the
  /// lock domains documented on Replica.
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex state_mutex_;  ///< guards the ledger below
  std::condition_variable drained_cv_;
  RuntimeTotals totals_;
  ClassStats class_stats_[kPriorityClasses];
  std::vector<ReplicaStats> replica_stats_;  ///< one per replica
  std::size_t admitted_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Admission time of every admitted-but-unresolved request, keyed by
  /// admission sequence — begin() is the oldest (stats/health age).
  std::map<std::uint64_t, std::chrono::steady_clock::time_point>
      outstanding_;
  bool failed_ = false;  ///< serving stopped; health() reports kFailed

  /// Pool domain: replica queues/backlogs/liveness and the dispatcher's
  /// room wait. Never held together with state_mutex_ or watch_mutex_.
  mutable std::mutex pool_mutex_;
  std::condition_variable pool_cv_;
  std::size_t live_replicas_ = 0;
  bool pool_stop_ = false;

  // Watchdog: workers stamp their executing batch into their replica's
  // slot; the watchdog thread compares each slot's age against the
  // cost-model stall threshold.
  mutable std::mutex watch_mutex_;
  std::condition_variable watch_cv_;
  bool watch_stop_ = false;
  std::atomic<std::int64_t> watchdog_stalls_{0};

  std::mutex shutdown_mutex_;  ///< serializes shutdown()/~Server
  std::thread scheduler_;
  std::thread watchdog_;
};

}  // namespace swat
