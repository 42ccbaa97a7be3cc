// accesys benchmark workloads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Runs one workload repeatedly through the simulator's public API only
// (System, SystemConfig setters, Runner, RequestGen, System::stats(),
// EventQueue::events_processed() and the dispatch observer), checks every
// simulated result, and prints one JSON object on stdout: per-repetition
// host timings, the model outputs and counters, a digest of the final
// stats dump, and the operations attempted and failed. perfbench/run.py
// turns that into the benchmark's metrics.
//
// Every repetition builds a fresh System. One untimed warm-up repetition
// fixes the reference results; every later repetition must reproduce them
// exactly (stats digest, event count, model outputs). With --trace 1 the
// measured repetitions alternate between traced and untraced: traced ones
// install a dispatch observer that charges host time to simulator layers
// by event name, untraced ones give the baseline for the tracing overhead.
// Host-time spans around the public calls (and, for serving, one
// simulated-time queue/service span pair per request) are kept in memory
// and written to --spans as a Chrome trace at exit.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/runner.hh"
#include "mem/packet.hh"
#include "pcie/tlp.hh"
#include "workload/request_gen.hh"
#include "workload/vit.hh"

namespace {

using namespace accesys;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64 over (seed, stream): independent per-use seeds derived from
/// --seed, so the simulator only ever sees the generated inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

// --- JSON output --------------------------------------------------------------

std::string json_str(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// --- spans --------------------------------------------------------------------

/// Host-time span around one public call; `rep` is the repetition id.
struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int id = 0;
    int parent = -1;
    int rep = 0;
    bool traced = false;
};

/// Simulated-time span of one served request's queueing or service phase.
struct RequestSpan {
    std::uint64_t request = 0;
    std::uint32_t tenant = 0;
    const char* phase = "";
    double start_us = 0.0;
    double end_us = 0.0;
};

class SpanLog {
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    int open(std::string name, int parent, int rep, bool traced)
    {
        if (!enabled_) {
            return -1;
        }
        Span s;
        s.name = std::move(name);
        s.start_us = now_us();
        s.id = static_cast<int>(spans_.size());
        s.parent = parent;
        s.rep = rep;
        s.traced = traced;
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    void close(int id)
    {
        if (id >= 0) {
            spans_[static_cast<std::size_t>(id)].end_us = now_us();
        }
    }

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    [[nodiscard]] bool wants_requests() const noexcept
    {
        return enabled_ && requests_.empty();
    }
    void add_requests(std::vector<RequestSpan> spans)
    {
        requests_ = std::move(spans);
    }

    /// Chrome trace JSON: host spans on pid 1 ("X" events), request
    /// phases in simulated time on pid 2 (async pairs keyed by request id).
    void write(const std::string& path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[\n";
        bool first = true;
        auto sep = [&] {
            out << (first ? "" : ",\n");
            first = false;
        };
        for (const Span& s : spans_) {
            sep();
            out << "{\"name\":" << json_str(s.name)
                << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
                << json_num(s.start_us)
                << ",\"dur\":" << json_num(s.end_us - s.start_us)
                << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
                << ",\"rep\":" << s.rep
                << ",\"traced\":" << (s.traced ? "true" : "false") << "}}";
        }
        for (const RequestSpan& r : requests_) {
            for (const char ph : {'b', 'e'}) {
                sep();
                out << "{\"name\":\"" << r.phase << "\",\"cat\":\"request\""
                    << ",\"ph\":\"" << ph << "\",\"pid\":2,\"tid\":"
                    << r.tenant << ",\"id\":" << r.request << ",\"ts\":"
                    << json_num(ph == 'b' ? r.start_us : r.end_us)
                    << ",\"args\":{\"request\":" << r.request << "}}";
            }
        }
        out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    }

  private:
    [[nodiscard]] double now_us() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<RequestSpan> requests_;
};

// --- layer attribution ---------------------------------------------------------

/// Event-name component (instance digits stripped) -> layer, named after
/// the src/ module that implements it. Unlisted components land in "other".
constexpr std::array<std::pair<std::string_view, std::string_view>, 15>
    kComponents{{
        {"cpu", "cpu.cpu0"},
        {"l1d", "cache.l1d"},
        {"llc", "cache.llc"},
        {"iocache", "cache.iocache"},
        {"membus", "mem.membus"},
        {"hostmem", "mem.hostmem"},
        {"devmem_xbar", "mem.devmem_xbar"},
        {"devmem", "mem.devmem"},
        {"rc", "pcie.rc"},
        {"pcie_sw", "pcie.switch"},
        {"link_up", "pcie.link_up"},
        {"link_dn", "pcie.link_dn"},
        {"mf", "accel.mf"},
        {"smmu", "smmu.smmu"},
        {"reqgen", "workload.reqgen"},
    }};
constexpr std::size_t kOther = kComponents.size();
constexpr std::size_t kLayers = kComponents.size() + 1;

std::string_view layer_name(std::size_t i)
{
    return i == kOther ? std::string_view("other") : kComponents[i].second;
}

std::size_t classify(const std::string& event_name)
{
    std::string_view comp(event_name);
    comp = comp.substr(0, comp.find('.'));
    while (!comp.empty() && comp.back() >= '0' && comp.back() <= '9') {
        comp.remove_suffix(1);
    }
    for (std::size_t i = 0; i < kComponents.size(); ++i) {
        if (kComponents[i].first == comp) {
            return i;
        }
    }
    return kOther;
}

struct LayerTotals {
    std::array<std::uint64_t, kLayers> events{};
    std::array<double, kLayers> ms{};
};

/// Charges the host time between one dispatch and the next to the earlier
/// event's layer (its callback plus the queue work it caused). The last
/// interval of a run call is dropped, so the charged total never exceeds
/// the run call's wall time; the remainder is the runner's own host work.
class LayerTracer final : public EventQueue::DispatchObserver {
  public:
    /// `serving` registry: Runner::serve runs one event loop per dispatch
    /// round and does admission, shedding and verification in between.
    /// An interval across a round boundary (the round counters moved) is
    /// left to the runner instead of being charged to the round's last
    /// event.
    LayerTracer(LayerTotals& totals, const stats::Registry* serving)
        : totals_(&totals), serving_(serving)
    {
    }

    void on_dispatch(const Event& ev) override
    {
        const auto t = Clock::now();
        const bool boundary = serving_ != nullptr && round_moved();
        if (pending_ != kNone && !boundary) {
            totals_->ms[pending_] += ms_between(last_, t);
        }
        pending_ = layer_of(ev.name());
        ++totals_->events[pending_];
        last_ = t;
    }

  private:
    static constexpr std::size_t kNone = kLayers;

    bool round_moved()
    {
        if (rounds_ == nullptr) {
            rounds_ = serving_->find("runner.serving.rounds");
            idle_ = serving_->find("runner.serving.idle_rounds");
            ensure(rounds_ != nullptr && idle_ != nullptr,
                   "serving round counters not registered: the layer "
                   "attribution cannot separate runner time");
        }
        const double v = rounds_->value() + idle_->value();
        const bool moved = v != rounds_seen_;
        rounds_seen_ = v;
        return moved;
    }

    /// Layers are cached by the event's address; the stored name catches
    /// an address reused by a differently named event.
    std::size_t layer_of(const std::string& name)
    {
        auto [it, inserted] = cache_.try_emplace(&name);
        if (inserted || it->second.first != name) {
            it->second = {name, classify(name)};
        }
        return it->second.second;
    }

    LayerTotals* totals_;
    const stats::Registry* serving_;
    const stats::Stat* rounds_ = nullptr;
    const stats::Stat* idle_ = nullptr;
    double rounds_seen_ = -1.0;
    std::size_t pending_ = kNone;
    Clock::time_point last_;
    std::unordered_map<const std::string*, std::pair<std::string, std::size_t>>
        cache_;
};

// --- host-speed reference -----------------------------------------------------------

/// Fixed work timed before every untraced repetition and after the last
/// measured one (perfbench/run.py scales the times by it): a small
/// discrete-event loop (binary-heap queue of 4096 pending events, handlers
/// called through std::function, scattered updates to an 8 MiB table).
/// On a shared host the simulator's speed drifts by up to ~1.7x for
/// minutes at a time as neighbours contend for the caches; this loop has
/// the same kind of memory behaviour, so the run calls' time divided by
/// the loop's time around them cancels most of that drift. The loop lives
/// in the benchmark, so no change to the simulator can change it.
class ReferenceLoop {
  public:
    ReferenceLoop() : table_(std::size_t{1} << 20, 0) {}

    /// Host time of one fixed run of the loop, in ms.
    double measure_ms()
    {
        std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
        auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            return rng;
        };
        const std::size_t mask = table_.size() - 1;
        std::vector<std::function<void(std::uint64_t)>> handlers;
        for (std::uint64_t h = 0; h < 16; ++h) {
            handlers.emplace_back([this, h, mask](std::uint64_t v) {
                std::uint64_t& slot =
                    table_[(v * 0x9e3779b97f4a7c15ULL + h) & mask];
                slot += v;
                sink_ += slot;
            });
        }
        using Ev = std::pair<std::uint64_t, std::uint64_t>; // (when, payload)
        const auto t0 = Clock::now();
        std::priority_queue<Ev, std::vector<Ev>, std::greater<>> queue;
        for (int i = 0; i < 4096; ++i) {
            queue.emplace(next() % 1000, next());
        }
        for (int step = 0; step < (1 << 18); ++step) {
            const Ev ev = queue.top();
            queue.pop();
            handlers[ev.second & 15](next());
            queue.emplace(ev.first + 1 + next() % 1000, next());
        }
        return ms_between(t0, Clock::now());
    }

    /// Folded table contents; printed so the loop cannot be optimised out.
    [[nodiscard]] std::uint64_t sink() const noexcept { return sink_; }

  private:
    std::vector<std::uint64_t> table_;
    std::uint64_t sink_ = 0;
};

// --- model counters ---------------------------------------------------------------

/// Model counters read from System::stats(), summed over the systems of one
/// repetition. Rates are formed from summed counts where the dump has the
/// counts; DRAM row-hit rates and read latency exist only as per-system
/// values, so they are averaged over the systems that have the component.
class Counters {
  public:
    void add(core::System& sys, Tick sim_ticks)
    {
        const stats::Registry& reg = sys.stats();
        auto must = [&](const std::string& name) { return reg.value(name); };
        auto opt = [&](const std::string& name) {
            const stats::Stat* s = reg.find(name);
            return s != nullptr ? s->value() : 0.0;
        };
        io_hits_ += must("iocache.hits");
        io_misses_ += must("iocache.misses");
        llc_hits_ += must("llc.hits");
        llc_misses_ += must("llc.misses");
        sum_["cache.iocache.mshr_rejects"] += must("iocache.mshr_rejects");
        sum_["mem.membus.retries"] += must("membus.retries");
        sum_["pcie.link_up.wire_bytes"] += must("link_up.wire_bytes");
        sum_["pcie.rc.hol_stalls"] += must("rc.hol_stalls");
        sum_["smmu.ptw_count"] += must("smmu.ptw_count");
        utlb_misses_ += must("smmu.utlb_misses");
        utlb_lookups_ += must("smmu.utlb_lookups");
        host_row_hit_.push_back(must("hostmem.row_hit_rate"));
        host_read_ns_.push_back(must("hostmem.read_latency_ns"));
        if (const stats::Stat* s = reg.find("devmem.row_hit_rate")) {
            devmem_row_hit_.push_back(s->value());
        }
        double moved = 0.0;
        for (std::size_t d = 0; d < sys.device_count(); ++d) {
            const std::string& mf = sys.accelerator(d).name();
            const double dma = must(mf + ".dma.bytes_read") +
                               must(mf + ".dma.bytes_written");
            sum_["dma.bytes"] += dma;
            sum_["accel.compute_ticks"] += must(mf + ".compute_ticks");
            moved += dma + opt(mf + ".devmem_mover.bytes");
        }
        accel_bytes_ += moved;
        sim_ticks_ += sim_ticks;
    }

    void into(std::map<std::string, double>& out) const
    {
        auto ratio = [](double num, double den) {
            return den > 0.0 ? num / den : 0.0;
        };
        auto mean = [](const std::vector<double>& v) {
            double s = 0.0;
            for (const double x : v) {
                s += x;
            }
            return v.empty() ? 0.0 : s / static_cast<double>(v.size());
        };
        for (const auto& [name, v] : sum_) {
            out[name] = v;
        }
        out["cache.iocache.hit_rate"] =
            ratio(io_hits_, io_hits_ + io_misses_);
        out["cache.llc.hit_rate"] = ratio(llc_hits_, llc_hits_ + llc_misses_);
        out["smmu.utlb_miss_ratio"] = ratio(utlb_misses_, utlb_lookups_);
        out["mem.hostmem.row_hit_rate"] = mean(host_row_hit_);
        out["mem.hostmem.read_latency_ns"] = mean(host_read_ns_);
        out["mem.devmem.row_hit_rate"] = mean(devmem_row_hit_);
        const double sim_s = ticks_to_sec(sim_ticks_);
        out["model.sim_us"] = sim_s * 1e6;
        out["model.agg_gbps"] = ratio(accel_bytes_, sim_s) / 1e9;
    }

  private:
    std::map<std::string, double> sum_;
    double io_hits_ = 0.0;
    double io_misses_ = 0.0;
    double llc_hits_ = 0.0;
    double llc_misses_ = 0.0;
    double utlb_misses_ = 0.0;
    double utlb_lookups_ = 0.0;
    double accel_bytes_ = 0.0;
    std::vector<double> host_row_hit_;
    std::vector<double> host_read_ns_;
    std::vector<double> devmem_row_hit_;
    Tick sim_ticks_ = 0;
};

// --- one repetition -------------------------------------------------------------

std::uint64_t pool_allocs()
{
    return mem::PacketPool::lifetime_allocs() +
           pcie::TlpPool::lifetime_allocs();
}

/// Results of one repetition of a workload.
struct RepResult {
    bool traced = false;
    double build_ms = 0.0;
    double dispatch_ms = 0.0;
    double requestgen_ms = 0.0;
    double run_ms = 0.0;
    double reference_ms = 0.0; ///< reference loop timed just before

    std::uint64_t events = 0;
    std::uint64_t pool_allocs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::uint64_t digest = kFnvOffset;
    std::map<std::string, double> model;
    LayerTotals layers;

    [[nodiscard]] double setup_ms() const
    {
        return build_ms + dispatch_ms + requestgen_ms;
    }
};

/// Context a workload runs one repetition in: times the reference loop
/// first (when given one, before the repetition builds anything, so the
/// loop does not evict the systems it measures), times the public calls,
/// records their spans, installs the layer tracer around run calls, and
/// collects the checks and counters.
class Rep {
  public:
    Rep(SpanLog& log, int id, bool traced, bool setup_only,
        ReferenceLoop* reference)
        : log_(&log), id_(id), setup_only_(setup_only)
    {
        if (reference != nullptr) {
            res_.reference_ms = reference->measure_ms();
        }
        res_.traced = traced;
        span_ = log_->open(setup_only ? "setup" : "rep", -1, id_, traced);
    }
    ~Rep() { log_->close(span_); }
    Rep(const Rep&) = delete;
    Rep& operator=(const Rep&) = delete;

    [[nodiscard]] bool setup_only() const noexcept { return setup_only_; }
    [[nodiscard]] SpanLog& log() noexcept { return *log_; }
    [[nodiscard]] RepResult& result() noexcept { return res_; }

    /// Time one setup call (System construction, dispatch, RequestGen).
    void setup(const char* name, double& acc_ms,
               const std::function<void()>& call)
    {
        const int span = log_->open(name, span_, id_, res_.traced);
        const auto t0 = Clock::now();
        call();
        acc_ms += ms_between(t0, Clock::now());
        log_->close(span);
    }

    /// Time one simulation call on `sys`; `serving` marks Runner::serve.
    void run(core::System& sys, bool serving,
             const std::function<void()>& call)
    {
        LayerTracer tracer(res_.layers, serving ? &sys.stats() : nullptr);
        if (res_.traced) {
            sys.sim().queue().set_dispatch_observer(&tracer);
        }
        const std::uint64_t ev0 = sys.sim().queue().events_processed();
        const std::uint64_t alloc0 = pool_allocs();
        const int span = log_->open("run", span_, id_, res_.traced);
        const auto t0 = Clock::now();
        try {
            call();
        } catch (...) {
            sys.sim().queue().set_dispatch_observer(nullptr);
            log_->close(span);
            throw;
        }
        res_.run_ms += ms_between(t0, Clock::now());
        log_->close(span);
        sys.sim().queue().set_dispatch_observer(nullptr);
        res_.pool_allocs += pool_allocs() - alloc0;
        res_.events += sys.sim().queue().events_processed() - ev0;
    }

    /// Record one operation's outcome.
    void op(bool ok, const std::string& what)
    {
        ++res_.attempted;
        if (!ok) {
            ++res_.failed;
            res_.errors.push_back(what);
        }
    }

    /// Fold a finished system's stats dump into the digest and counters.
    void finish(core::System& sys, Tick sim_ticks)
    {
        std::ostringstream dump;
        sys.stats().write_json(dump);
        res_.digest = fnv1a(res_.digest, dump.str());
        counters_.add(sys, sim_ticks);
    }

    /// Turn the counters into model values once the workload returns.
    void finalize()
    {
        counters_.into(res_.model);
    }

  private:
    SpanLog* log_;
    int id_;
    bool setup_only_;
    int span_ = -1;
    RepResult res_;
    Counters counters_;
};

// --- workloads -------------------------------------------------------------------

constexpr std::uint32_t kGemm = 512;

/// One operation per device job: it must finish and verify.
void gemm_ops(Rep& rep, const core::MultiGemmResult& res, const char* what)
{
    for (const auto& d : res.devices) {
        rep.op(d.ok() && d.verified,
               std::string(what) + ": device " + std::to_string(d.device) +
                   " did not verify (" + std::to_string(d.mismatches) +
                   " mismatches)");
    }
    if (!res.all_verified()) {
        rep.op(false, std::string(what) + ": all_verified() is false");
    }
}

/// paper_default, 4 endpoints, one verified 512^3 GEMM each in host
/// memory: the host-hierarchy hot path under uplink contention.
void host_contention(Rep& rep, std::uint64_t seed)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    std::unique_ptr<core::System> sys;
    rep.setup("build", rep.result().build_ms,
              [&] { sys = std::make_unique<core::System>(cfg); });
    core::Runner runner(*sys);
    for (std::size_t d = 0; d < 4; ++d) {
        const workload::GemmSpec spec{kGemm, kGemm, kGemm,
                                      derive_seed(seed, d)};
        rep.setup("dispatch", rep.result().dispatch_ms, [&] {
            runner.dispatch(d, spec, core::Placement::host, true);
        });
    }
    if (rep.setup_only()) {
        return;
    }
    core::MultiGemmResult res;
    rep.run(*sys, false, [&] { res = runner.run_dispatched(); });
    gemm_ops(rep, res, "host_contention");
    rep.finish(*sys, res.elapsed());
}

/// One endpoint, one verified 512^3 GEMM per device-memory technology
/// (paper Fig. 5 device-side axis): the host hierarchy carries only the
/// doorbell, descriptor and flag.
void devmem_memtech(Rep& rep, std::uint64_t seed)
{
    static constexpr std::array<const char*, 4> kTechs{"DDR4", "DDR5",
                                                       "GDDR6", "HBM2"};
    for (std::size_t i = 0; i < kTechs.size(); ++i) {
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.set_devmem(kTechs[i]);
        std::unique_ptr<core::System> sys;
        rep.setup("build", rep.result().build_ms,
                  [&] { sys = std::make_unique<core::System>(cfg); });
        core::Runner runner(*sys);
        const workload::GemmSpec spec{kGemm, kGemm, kGemm,
                                      derive_seed(seed, i)};
        rep.setup("dispatch", rep.result().dispatch_ms, [&] {
            runner.dispatch(0, spec, core::Placement::devmem, true);
        });
        if (rep.setup_only()) {
            continue;
        }
        core::MultiGemmResult res;
        rep.run(*sys, false, [&] { res = runner.run_dispatched(); });
        gemm_ops(rep, res, kTechs[i]);
        rep.finish(*sys, res.elapsed());
    }
}

/// ViT-base cut to one encoder layer on the paper's Fig. 7 PCIe-64GB
/// system: sequential offloads of varying shape beside CPU vector ops.
void vit_offload(Rep& rep, std::uint64_t /*seed: the model has no inputs*/)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_host_dram("HBM2");
    cfg.set_pcie_target_gbps(64.0, 16);
    cfg.set_packet_size(256);
    std::unique_ptr<core::System> sys;
    rep.setup("build", rep.result().build_ms,
              [&] { sys = std::make_unique<core::System>(cfg); });
    if (rep.setup_only()) {
        return;
    }
    workload::VitConfig vit = workload::VitConfig::base();
    vit.layers = 1;
    core::Runner runner(*sys);
    core::VitRunResult res;
    rep.run(*sys, false,
            [&] { res = runner.run_vit(vit, core::Placement::host); });
    const workload::VitSummary want =
        workload::summarize(workload::lower_vit(vit));
    rep.op(res.gemm_cmds == want.gemm_count &&
               res.vector_ops == want.vector_count,
           "vit_offload: ran " + std::to_string(res.gemm_cmds) + " GEMMs / " +
               std::to_string(res.vector_ops) + " vector ops, lowering has " +
               std::to_string(want.gemm_count) + " / " +
               std::to_string(want.vector_count));
    rep.finish(*sys, res.elapsed());
    rep.result().model["model.gemm_share"] =
        res.elapsed() == 0 ? 0.0
                           : static_cast<double>(res.gemm_ticks) /
                                 static_cast<double>(res.elapsed());
}

/// Two-tenant open-loop Poisson mix at ~1.45x the 4-endpoint fleet's
/// capacity, shed_oldest with an 8-deep queue, verify on.
workload::RequestGenConfig serving_mix(std::uint64_t seed)
{
    workload::RequestGenConfig g;
    g.seed = derive_seed(seed, 100);
    g.horizon_ns = 2e7;
    workload::TenantSpec interactive;
    interactive.name = "interactive";
    interactive.rate_jobs_per_s = 1.6e5;
    interactive.mix = {workload::GemmSpec{16, 16, 16, derive_seed(seed, 101)},
                       workload::GemmSpec{32, 32, 32, derive_seed(seed, 102)}};
    workload::TenantSpec batch;
    batch.name = "batch";
    batch.rate_jobs_per_s = 0.8e5;
    batch.mix = {workload::GemmSpec{48, 48, 48, derive_seed(seed, 103)}};
    g.tenants = {interactive, batch};
    return g;
}

void serving_overload(Rep& rep, std::uint64_t seed)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    const workload::RequestGenConfig gcfg = serving_mix(seed);
    std::unique_ptr<core::System> sys;
    rep.setup("build", rep.result().build_ms,
              [&] { sys = std::make_unique<core::System>(cfg); });
    std::unique_ptr<workload::RequestGen> gen;
    rep.setup("requestgen", rep.result().requestgen_ms, [&] {
        gen = std::make_unique<workload::RequestGen>(sys->sim(), gcfg);
    });
    if (rep.setup_only()) {
        return;
    }
    core::ServingConfig scfg;
    scfg.policy = core::ShedPolicy::shed_oldest;
    scfg.queue_capacity = 8;
    scfg.verify = true;
    core::Runner runner(*sys);
    core::ServingResult res;
    rep.run(*sys, true, [&] { res = runner.serve(*gen, scfg); });

    // Operations are the admitted requests; rejected and shed ones are the
    // policy's deterministic outcome, not failures.
    const double verify_failures =
        sys->stat("runner.serving.verify_failures");
    for (const core::ServedJob& j : res.jobs) {
        if (j.status == core::JobStatus::rejected) {
            continue;
        }
        const bool ok = j.status == core::JobStatus::shed ||
                        (j.ok() && j.verified && j.mismatches == 0);
        rep.op(ok, "serving_overload: request " + std::to_string(j.id) +
                       " ended unfinished, failed or mismatching");
    }
    if (!res.accounted() || verify_failures != 0.0) {
        rep.op(false, "serving_overload: accounting broken or verify "
                      "failures (" +
                          std::to_string(verify_failures) + ")");
    }
    rep.finish(*sys, res.elapsed());

    double p99_us = 0.0;
    for (const auto& t : res.tenants) {
        p99_us = std::max(p99_us, t.p99_e2e_ns / 1e3);
    }
    auto& m = rep.result().model;
    m["model.completed"] = static_cast<double>(res.completed);
    m["model.shed"] = static_cast<double>(res.shed);
    m["model.goodput_jobs_per_s"] = res.goodput_jobs_per_s();
    m["model.p99_e2e_us"] = p99_us;

    if (rep.result().traced && rep.log().wants_requests()) {
        std::vector<RequestSpan> spans;
        for (const core::ServedJob& j : res.jobs) {
            if (!j.ok()) {
                continue;
            }
            spans.push_back({j.id, j.tenant, "queue",
                             ticks_to_ns(j.arrival) / 1e3,
                             ticks_to_ns(j.first_dispatch) / 1e3});
            spans.push_back({j.id, j.tenant, "service",
                             ticks_to_ns(j.last_dispatch) / 1e3,
                             ticks_to_ns(j.done) / 1e3});
        }
        rep.log().add_requests(std::move(spans));
    }
}

using WorkloadFn = void (*)(Rep&, std::uint64_t);

const std::map<std::string, WorkloadFn>& workloads()
{
    static const std::map<std::string, WorkloadFn> table{
        {"host_contention", host_contention},
        {"devmem_memtech", devmem_memtech},
        {"vit_offload", vit_offload},
        {"serving_overload", serving_overload},
    };
    return table;
}

/// Model outputs that every workload reports (0 where not applicable), so
/// each run names the same set.
void default_model(std::map<std::string, double>& m)
{
    for (const char* k : {"model.gemm_share", "model.completed",
                          "model.shed", "model.goodput_jobs_per_s",
                          "model.p99_e2e_us"}) {
        m.try_emplace(k, 0.0);
    }
}

RepResult run_rep(WorkloadFn fn, SpanLog& log, int id, bool traced,
                  bool setup_only, std::uint64_t seed,
                  ReferenceLoop* reference = nullptr)
{
    Rep rep(log, id, traced, setup_only, reference);
    try {
        fn(rep, seed);
    } catch (const std::exception& e) {
        rep.op(false, std::string("run ended by exception: ") + e.what());
    }
    if (!setup_only) {
        rep.finalize();
        default_model(rep.result().model);
    }
    return std::move(rep.result());
}

/// The reference a repetition must reproduce exactly; empty when it does.
std::string compare(const RepResult& warm, const RepResult& r)
{
    if (r.digest != warm.digest) {
        return "stats digest differs from the warm-up repetition";
    }
    if (r.events != warm.events) {
        return "event count " + std::to_string(r.events) +
               " differs from the warm-up's " + std::to_string(warm.events);
    }
    for (const auto& [k, v] : warm.model) {
        const auto it = r.model.find(k);
        if (it == r.model.end() || it->second != v) {
            return k + " differs from the warm-up repetition";
        }
    }
    return {};
}

/// Peak resident memory of this process image, in KiB: VmHWM belongs to
/// the address space, unlike getrusage's maxrss, which carries the parent's
/// peak across fork and exec.
double peak_rss_kb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6));
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

std::string hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string rep_json(const RepResult& r)
{
    std::ostringstream o;
    o << "{\"traced\":" << (r.traced ? "true" : "false")
      << ",\"build_ms\":" << json_num(r.build_ms)
      << ",\"dispatch_ms\":" << json_num(r.dispatch_ms)
      << ",\"requestgen_ms\":" << json_num(r.requestgen_ms)
      << ",\"run_ms\":" << json_num(r.run_ms)
      << ",\"reference_ms\":" << json_num(r.reference_ms);
    if (r.traced) {
        o << ",\"layers\":{";
        for (std::size_t i = 0; i < kLayers; ++i) {
            o << (i ? "," : "") << json_str(layer_name(i)) << ":["
              << r.layers.events[i] << "," << json_num(r.layers.ms[i]) << "]";
        }
        o << "}";
    }
    o << "}";
    return o.str();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

[[noreturn]] void usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\nworkloads:",
                 msg);
    for (const auto& [name, _] : workloads()) {
        std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args parse(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + key).c_str());
        }
        const std::string val = argv[++i];
        try {
            if (key == "--workload") {
                a.workload = val;
            } else if (key == "--seed") {
                a.seed = std::stoull(val);
            } else if (key == "--seconds") {
                a.seconds = std::stod(val);
            } else if (key == "--trace") {
                a.trace = std::stoi(val) != 0;
            } else if (key == "--spans") {
                a.spans = val;
            } else {
                usage(("unknown option " + key).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (workloads().count(a.workload) == 0) {
        usage(("unknown workload '" + a.workload + "'").c_str());
    }
    if (!(a.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    return a;
}

} // namespace

int main(int argc, char** argv)
{
    const Args args = parse(argc, argv);
    const WorkloadFn fn = workloads().at(args.workload);
    // Enough samples for a median and quartiles even on the slowest
    // workload; traced runs alternate traced and untraced repetitions.
    const int min_reps = args.trace ? 4 : 3;
    constexpr std::size_t kMinSetupSamples = 40;

    SpanLog log(args.trace);
    std::vector<RepResult> reps;
    std::vector<std::pair<double, double>> setup; // (set-up ms, reference ms)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    auto account = [&](const RepResult& r) {
        attempted += r.attempted;
        failed += r.failed;
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    };

    // Warm-up: fills the process-wide packet/TLP pools (its run-call pool
    // allocations are the cold-start count) and fixes the results every
    // later repetition must reproduce. Peak memory is read after it, before
    // the reference loop's table exists.
    const RepResult warm = run_rep(fn, log, 0, false, false, args.seed);
    account(warm);
    const double peak_rss_mb = peak_rss_kb() / 1024.0;

    // Only untraced runs time the reference loop: their run calls are the
    // end-to-end measurement.
    std::optional<ReferenceLoop> reference;
    if (!args.trace) {
        reference.emplace();
    }
    ReferenceLoop* const timed_reference =
        reference ? &*reference : nullptr;

    const auto t0 = Clock::now();
    for (int i = 0; failed == 0 &&
                    (static_cast<int>(reps.size()) < min_reps ||
                     ms_between(t0, Clock::now()) < args.seconds * 1e3);
         ++i) {
        const bool traced = args.trace && i % 2 == 0;
        RepResult r = run_rep(fn, log, i + 1, traced, false, args.seed,
                              timed_reference);
        if (const std::string diff = compare(warm, r);
            !diff.empty() && r.failed == 0) {
            r.failed = r.attempted;
            r.errors.push_back("nondeterministic: " + diff);
        }
        account(r);
        setup.emplace_back(r.setup_ms(), r.reference_ms);
        reps.push_back(std::move(r));
    }
    // With the next repetition's, this brackets every run call by the loop.
    const double reference_after_ms =
        reference && !reps.empty() ? reference->measure_ms() : 0.0;
    // Set-up is short next to the run on some workloads: pad its samples
    // with set-up-only repetitions so the median that untraced runs report
    // rests on enough of them.
    for (int id = static_cast<int>(reps.size()) + 1;
         !args.trace && failed == 0 && setup.size() < kMinSetupSamples;
         ++id) {
        const RepResult r =
            run_rep(fn, log, id, false, true, args.seed, timed_reference);
        account(r);
        setup.emplace_back(r.setup_ms(), r.reference_ms);
    }

    if (!args.spans.empty() && log.enabled()) {
        log.write(args.spans);
    }

    std::ostringstream o;
    o << "{\"workload\":" << json_str(args.workload)
      << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"env\":{\"compiler\":" << json_str(__VERSION__)
      << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
      << ",\"ndebug\":true"
#else
      << ",\"ndebug\":false"
#endif
      << "},\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
        o << (i ? "," : "") << json_str(errors[i]);
    }
    o << "],\"digest\":" << json_str(hex(warm.digest))
      << ",\"events\":" << warm.events
      << ",\"pool_allocs\":" << warm.pool_allocs
      << ",\"reference_sink\":" << (reference ? reference->sink() : 0)
      << ",\"peak_rss_mb\":" << json_num(peak_rss_mb)
      << ",\"model\":{";
    bool first = true;
    for (const auto& [k, v] : warm.model) {
        o << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
        first = false;
    }
    o << "},\"reference_after_ms\":" << json_num(reference_after_ms)
      << ",\"setup\":[";
    for (std::size_t i = 0; i < setup.size(); ++i) {
        o << (i ? "," : "") << "[" << json_num(setup[i].first) << ","
          << json_num(setup[i].second) << "]";
    }
    o << "],\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        o << (i ? "," : "") << rep_json(reps[i]);
    }
    o << "]}";
    std::printf("%s\n", o.str().c_str());
    return failed == 0 ? 0 : 1;
}
