// Top-level simulation container: event queue + stats registry + run control.
//
// A Simulator owns exactly one EventQueue and dispatches serially. Every
// SimObject schedules into that queue, so dispatch order is fixed by the
// (tick, priority, sequence) key alone and every stat is deterministic.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace accesys {

class FaultInjector;
class SimObject;

class Ckpt;

/// Why a Simulator::run() call returned.
enum class ExitCause {
    queue_drained,   ///< no live events remain
    exit_requested,  ///< a component called request_exit()
    horizon_reached, ///< max_tick passed without drain/exit
    checkpointed,    ///< a requested checkpoint was written (see exit_reason
                     ///< for the path); resume via Simulator::restore()
};

struct RunResult {
    ExitCause cause = ExitCause::queue_drained;
    std::string exit_reason;      ///< set for ExitCause::exit_requested
    Tick end_tick = 0;            ///< simulated time when run() returned
    std::uint64_t events = 0;     ///< events executed by this run() call
};

/// Owns the event queue and the stat registry; SimObjects attach to it.
class Simulator {
  public:
    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// The event queue every attached SimObject schedules into.
    [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
    [[nodiscard]] Tick now() const noexcept { return queue_.now(); }
    [[nodiscard]] stats::Registry& stats() noexcept { return stats_; }

    /// Ask the run loop to stop after the current event.
    void request_exit(std::string reason)
    {
        exit_requested_ = true;
        stop_now_ = true;
        exit_reason_ = std::move(reason);
    }

    [[nodiscard]] bool exit_requested() const noexcept
    {
        return exit_requested_;
    }

    /// Install the fault injector (owned by core::System, set before any
    /// fault-aware component constructs). Null — the default — means no
    /// fault model: components must allocate no fault state and register
    /// no fault stats, keeping clean runs bit-identical.
    void set_fault_injector(FaultInjector* fi) noexcept
    {
        fault_injector_ = fi;
    }
    /// The active fault injector, or null when faults are not modelled.
    /// (A disabled injector is also reported as null so call sites need
    /// only one check.)
    [[nodiscard]] FaultInjector* fault_injector() const noexcept;

    /// Invoke SimObject::startup() on every attached object (once).
    void startup();

    /// Run until drain, requested exit, or `max_tick`.
    RunResult run(Tick max_tick = kMaxTick);

    // --- checkpoint/restore (see sim/serialize.hh) --------------------------

    /// Hash of the originating SystemConfig, stamped into every checkpoint
    /// and verified on restore. core::System sets it at construction.
    void set_config_hash(std::uint64_t h) noexcept { config_hash_ = h; }
    [[nodiscard]] std::uint64_t config_hash() const noexcept
    {
        return config_hash_;
    }

    /// Register a named serialization hook for stateful non-SimObject
    /// state (backing store, packet/TLP pools, runner bookkeeping). Runs
    /// in registration order between the component and stats sections.
    void add_ckpt_hook(std::string name, std::function<void(Ckpt&)> fn)
    {
        ckpt_hooks_.push_back({std::move(name), std::move(fn)});
    }

    /// Write a checkpoint of the current state to `path`. Legal only at a
    /// quiescent point (between events, or outside run()) — run() enforces
    /// this via the request_* entry points below, which is how callers
    /// should normally checkpoint.
    void checkpoint(const std::string& path);

    /// Ask run() to write a checkpoint to `path` once every event before
    /// tick `at` has run, then return ExitCause::checkpointed.
    void request_checkpoint_at(std::string path, Tick at);

    /// Pre-register the checkpoint path used when an asynchronous
    /// interrupt arrives (post_interrupt allocates nothing).
    void arm_interrupt_checkpoint(std::string path)
    {
        interrupt_ckpt_path_ = std::move(path);
    }

    /// Async-signal/watchdog-thread entry point: request a checkpoint (to
    /// the armed path) at the next legal point, then return
    /// ExitCause::checkpointed. Only flag writes — safe from a signal
    /// handler or another thread while run() executes.
    void post_interrupt() noexcept
    {
        interrupt_posted_ = true;
        stop_now_ = true;
    }
    [[nodiscard]] bool interrupt_posted() const noexcept
    {
        return interrupt_posted_;
    }

    /// Rebuild dynamic state from a checkpoint written under the same
    /// SystemConfig (fresh process, construction and wiring complete).
    /// The next run() resumes such that final results are bit-identical
    /// to the uninterrupted run. Throws SimError on any mismatch.
    void restore(const std::string& path);

    // --- liveness diagnostics ---------------------------------------------

    /// One line per component that currently holds queued/blocked work —
    /// the diagnostic payload for liveness-watchdog SimErrors.
    [[nodiscard]] std::string occupancy_report() const;

  private:
    friend class SimObject;
    void attach(SimObject& obj) { objects_.push_back(&obj); }
    void detach(SimObject& obj) noexcept;

    /// The symmetric section list shared by checkpoint() and restore().
    void serialize_state(Ckpt& ar);

    EventQueue queue_;
    stats::Registry stats_;
    std::vector<SimObject*> objects_;
    bool started_ = false;
    bool exit_requested_ = false;
    std::string exit_reason_;

    FaultInjector* fault_injector_ = nullptr;

    // --- checkpoint/restore state -------------------------------------------
    /// Run-loop stop flag polled between events: request_exit() and
    /// post_interrupt() both raise it (a plain bool on purpose — it must
    /// be writable from a signal handler, and a one-byte store/load is
    /// the same cost the exit flag always paid).
    bool stop_now_ = false;
    bool interrupt_posted_ = false;
    std::uint64_t config_hash_ = 0;
    std::string ckpt_path_;            ///< request_checkpoint_at target
    Tick ckpt_at_ = kMaxTick;          ///< request_checkpoint_at tick
    std::string interrupt_ckpt_path_;  ///< armed async-interrupt target
    struct CkptHook {
        std::string name;
        std::function<void(Ckpt&)> fn;
    };
    std::vector<CkptHook> ckpt_hooks_;
};

/// Base class for every named simulated component.
class SimObject {
  public:
    SimObject(Simulator& sim, std::string name);
    virtual ~SimObject();

    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] Simulator& sim() noexcept { return *sim_; }
    /// The simulator's event queue.
    [[nodiscard]] EventQueue& eq() const noexcept { return sim_->queue(); }
    [[nodiscard]] Tick now() const noexcept { return sim_->now(); }

    /// Hook called once before the first run(); wiring must be complete.
    virtual void startup() {}

    /// Checkpoint/restore this object's dynamic state (one symmetric
    /// field list; see sim/serialize.hh). The default is for stateless
    /// objects only — every component holding queues, in-flight packets,
    /// scheduled events or counters outside the stats registry must
    /// override, and must route each owned Event through
    /// Event::serialize(ar, eq()).
    virtual void serialize(Ckpt& ar) { (void)ar; }

    /// Append "name: <occupancy>" lines for any queued/blocked work this
    /// object currently holds (liveness-watchdog diagnostics). Objects
    /// holding nothing append nothing.
    virtual void report_occupancy(std::string& out) const { (void)out; }

  protected:
    void schedule(Event& ev, Tick when) { eq().schedule(ev, when); }
    void schedule_in(Event& ev, Tick delta) { eq().schedule_in(ev, delta); }
    void reschedule(Event& ev, Tick when) { eq().reschedule(ev, when); }
    void deschedule(Event& ev) { eq().deschedule(ev); }

    [[nodiscard]] stats::Group& stat_group() noexcept { return stats_; }

  private:
    Simulator* sim_;
    std::string name_;
    stats::Group stats_;
};

/// Mixin describing a clock domain (period in ticks).
class Clocked {
  public:
    explicit Clocked(Tick period) : period_(period)
    {
        ensure(period > 0, "zero clock period");
    }

    [[nodiscard]] Tick clock_period() const noexcept { return period_; }

    [[nodiscard]] Tick cycles_to_ticks(Cycles c) const noexcept
    {
        return c * period_;
    }

    [[nodiscard]] Cycles ticks_to_cycles(Tick t) const noexcept
    {
        return t / period_;
    }

    /// First clock edge at or after `now`. (Periods are arbitrary tick
    /// counts — e.g. 1 GHz = 1000 ticks — so this must not assume a
    /// power-of-two period.)
    [[nodiscard]] Tick next_edge(Tick now) const noexcept
    {
        return (now + period_ - 1) / period_ * period_;
    }

    /// Frequency in GHz implied by the period.
    [[nodiscard]] double freq_ghz() const noexcept
    {
        return 1000.0 / static_cast<double>(period_);
    }

  private:
    Tick period_;
};

} // namespace accesys
