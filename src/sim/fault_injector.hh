// Deterministic fault injection for the PCIe stack.
//
// A FaultPlan (carried on core::SystemConfig) describes *what* can go
// wrong: a seeded Bernoulli TLP-corruption rate, explicit (time, site)
// fault events (one-shot corruptions, link-down/retrain windows,
// endpoint hangs, poisoned completions, MMIO-UR windows, SMMU translation
// faults), and the recovery knobs the stack uses to fight back
// (replay-buffer depth, replay budget, completion timeouts, function-level
// reset + failover parameters). The FaultInjector is the runtime face of a
// plan: every PcieLink, endpoint and the SMMU registers itself as a fault
// *site* at construction and receives per-(site, channel) RNG streams
// seeded from (plan.seed, site_id, channel).
//
// Determinism contract: sites are registered in topology construction
// order and each stream is drawn in event-dispatch order, so a fixed plan
// produces bit-identical results run after run (locked by
// test_pool_determinism). ACCESYS_FAULTS=0 disables the whole subsystem —
// a populated plan then behaves exactly like an absent one.
//
// With no active plan, no link allocates fault state and no fault stat is
// registered: the clean hot path and its stats dumps are untouched.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace accesys {

/// What an explicit fault event does to its site.
enum class FaultKind : std::uint8_t {
    corrupt_tlp, ///< one-shot: the next TLP transmitted at/after `at_ns`
    link_down,   ///< the link drops everything for `duration_ns`, then
                 ///< retrains (credits drained and re-armed)
    accel_hang,  ///< endpoint FSM freezes at the next command boundary
                 ///< at/after `at_ns` (permanent until function-level reset)
    poisoned_cpl, ///< the next DMA completion arriving at the endpoint
                  ///< at/after `at_ns` carries the poison bit
    mmio_ur,      ///< endpoint MMIO window: reads complete all-ones
                  ///< unsupported-request, writes are dropped, for
                  ///< `duration_ns` (0 = permanent)
    smmu_fault,   ///< the next translated request on stream `dir` at/after
                  ///< `at_ns` takes a translation fault instead of a walk
};

/// One scheduled fault. `site` is matched as a substring of the site name
/// ("" matches every site). For link kinds `dir` selects the a->b (0) /
/// b->a (1) direction, or both (2); for smmu_fault it is the translation
/// stream id; device kinds ignore it.
struct FaultEvent {
    FaultKind kind = FaultKind::corrupt_tlp;
    std::string site;
    unsigned dir = 2;
    double at_ns = 0.0;
    double duration_ns = 0.0; ///< link_down / mmio_ur only
};

/// Everything the fault subsystem needs, in one value on SystemConfig.
struct FaultPlan {
    std::uint64_t seed = 1;

    /// Per-TLP corruption probability applied at link transmit (each
    /// replay attempt rolls again — errors can compound into NAK storms).
    double corrupt_rate = 0.0;
    /// Restrict the Bernoulli rate to links whose name contains this
    /// substring ("" = every link). Explicit events carry their own site.
    std::string corrupt_site;

    std::vector<FaultEvent> events;

    // --- recovery knobs ----------------------------------------------------
    /// Data-link replay buffer depth per direction; a full buffer
    /// back-pressures the transmitter until cumulative ACKs free entries.
    unsigned replay_buffer_tlps = 32;
    /// Retransmission budget per TLP before it is dropped for good (the
    /// transaction layer then recovers — or fails — via timeouts).
    unsigned max_replays = 8;
    /// Replay timer: un-ACKed entries older than this are retransmitted
    /// (covers losses the receiver never saw, e.g. link-down drops).
    double replay_timeout_ns = 2000.0;
    /// Completion timeout for split transactions (RootComplex MMIO reads,
    /// DmaEngine reads). 0 disables.
    double completion_timeout_ns = 0.0;
    /// Bounded retries (exponential backoff) before a timed-out
    /// transaction becomes a job-level failure.
    unsigned completion_max_retries = 3;
    /// Host-side give-up horizon for a dispatched job's completion poll;
    /// 0 polls forever (the clean-path behaviour).
    double job_timeout_ns = 0.0;

    // --- device-level fault kinds (Bernoulli rates) ------------------------
    /// Per-command hang probability at the accelerator's command boundary.
    double hang_rate = 0.0;
    std::string hang_site; ///< endpoint-name substring filter ("" = all)
    /// Per-completion poison probability at endpoint completion ingress.
    double poison_rate = 0.0;
    std::string poison_site;
    /// Per-translated-request SMMU translation-fault probability.
    double smmu_fault_rate = 0.0;

    // --- recovery machinery (Runner failover) ------------------------------
    /// Modeled function-level reset duration: the wedged endpoint drains
    /// its DMA/command state and sits busy for this long before rejoining
    /// the healthy pool.
    double flr_ns = 2000.0;
    /// Dispatch attempts per job including the first (1 = no failover —
    /// a failed job stays failed, the pre-failover behaviour).
    unsigned job_max_attempts = 1;
    /// Fleet-wide re-dispatch budget across all jobs of one batch.
    unsigned fleet_retry_budget = 16;
    /// Consecutive failures on one endpoint before degraded -> quarantined.
    unsigned quarantine_failures = 3;
    /// Consecutive successes before a degraded endpoint is healthy again.
    unsigned rehab_successes = 2;

    /// An inactive plan is indistinguishable from no plan at all.
    [[nodiscard]] bool active() const noexcept
    {
        return corrupt_rate > 0.0 || !events.empty() ||
               completion_timeout_ns > 0.0 || job_timeout_ns > 0.0 ||
               hang_rate > 0.0 || poison_rate > 0.0 || smmu_fault_rate > 0.0;
    }

    void validate() const;
};

/// Runtime face of a FaultPlan. Owned by core::System, installed on the
/// Simulator before any component constructs, so every PcieLink (and any
/// component with conditionally-registered fault stats) can find it.
class FaultInjector {
  public:
    explicit FaultInjector(const FaultPlan& plan);

    /// False when the plan is inactive or ACCESYS_FAULTS=0 snapshot says
    /// so; nothing may allocate fault state or register fault stats then.
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

    /// Register a fault site (one per PcieLink, topology construction
    /// order). Returns the site id the link keys its RNG streams with.
    [[nodiscard]] unsigned register_site(const std::string& name);

    [[nodiscard]] std::size_t site_count() const noexcept
    {
        return sites_.size();
    }

    /// Seed for the (site, dir) corruption stream: splitmix64-spread so
    /// neighbouring sites get uncorrelated sequences.
    [[nodiscard]] std::uint64_t stream_seed(unsigned site_id,
                                            unsigned dir) const noexcept;

    /// Seed for a device-level stream (hang, poison, per-stream SMMU
    /// faults). Mixed in a disjoint keyspace from the link streams so a
    /// device site id can never collide with a (site, dir) pair.
    [[nodiscard]] std::uint64_t
    device_stream_seed(unsigned site_id, unsigned channel) const noexcept;

    /// Does the Bernoulli corrupt_rate apply to this link?
    [[nodiscard]] bool rate_applies(const std::string& name) const;

    /// Do the device-level Bernoulli rates apply to this endpoint?
    [[nodiscard]] bool hang_applies(const std::string& name) const;
    [[nodiscard]] bool poison_applies(const std::string& name) const;

    /// Collect this (link, dir)'s explicit faults: one-shot corruption
    /// ticks (sorted) and link-down windows as [start, end) tick pairs
    /// (sorted, non-overlapping — overlaps are merged).
    void collect(const std::string& name, unsigned dir,
                 std::vector<Tick>& corrupt_ticks,
                 std::vector<std::pair<Tick, Tick>>& down_windows) const;

    /// Collect this endpoint's explicit device faults: one-shot hang /
    /// poison ticks (sorted) and MMIO-UR windows as [start, end) tick
    /// pairs (sorted, merged; duration 0 = open-ended).
    void collect_device(const std::string& name, std::vector<Tick>& hang_ticks,
                        std::vector<Tick>& poison_ticks,
                        std::vector<std::pair<Tick, Tick>>& ur_windows) const;

    /// Collect one translation stream's explicit smmu_fault ticks (the
    /// event's `dir` field carries the stream id).
    void collect_smmu(const std::string& name, unsigned stream,
                      std::vector<Tick>& fault_ticks) const;

    /// Any smmu_fault event in the plan (site filter aside)? Lets the SMMU
    /// skip fault-state allocation for plans that never touch it.
    [[nodiscard]] bool has_smmu_events() const;

  private:
    FaultPlan plan_;
    bool enabled_ = false;
    std::vector<std::string> sites_;
};

} // namespace accesys
