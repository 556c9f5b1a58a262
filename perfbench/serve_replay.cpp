/**
 * @file
 * serve_replay: an open-loop Poisson stream, in virtual time, at 1.25x
 * the modeled device rate over the 21-scene paper catalogue, through
 * one RenderService with one pool thread and batching and sessions
 * off. Every scene is warmed and pinned in setup, so each accepted
 * request is a memoized prepared-frame replay and the pass's wall time
 * is the per-request overhead of serve/ and runtime/.
 */
#include <algorithm>
#include <string>
#include <vector>

#include "harness.h"
#include "models/workload.h"
#include "open_loop.h"
#include "plan/plan_cache.h"
#include "runtime/sweep_runner.h"
#include "scene_repertoire.h"
#include "serve/render_service.h"

namespace perfbench {
namespace {

using namespace flexnerfer;

constexpr double kLoad = 1.25;
constexpr std::size_t kQueueDepth = 128;
constexpr std::size_t kPlanCacheCapacity = 16;

class ServeReplay : public Workload
{
  public:
    explicit ServeReplay(const RunConfig& config)
        : threads_(config.threads > 0 ? config.threads : 1),
          requests_(config.tiny ? 2000 : 200000),
          repertoire_(PaperSceneRepertoire())
    {
        // The arrival schedule depends on the warm estimates, which are
        // pure functions of the scene specs: derive them once from a
        // throwaway service.
        ServeConfig probe_config;
        probe_config.threads = 1;
        RenderService probe(probe_config);
        std::vector<double> est_ms;
        double mean_ms = 0.0;
        for (const NamedScene& scene : repertoire_) {
            probe.RegisterScene(scene.name, scene.spec);
            est_ms.push_back(
                EstimatedServiceMs(probe.WarmScene(scene.name)));
            mean_ms += est_ms.back();
        }
        mean_ms /= static_cast<double>(repertoire_.size());
        OpenLoopPoissonStream stream(config.seed, kLoad, mean_ms, est_ms);
        inputs_.reserve(requests_);
        scene_of_.reserve(requests_);
        for (std::size_t i = 0; i < requests_; ++i) {
            const OpenLoopRequest drawn = stream.Next();
            SceneRequest request;
            request.scene = repertoire_[drawn.scene_index].name;
            request.arrival_ms = drawn.arrival_ms;
            request.priority = drawn.priority;
            request.deadline_ms = drawn.deadline_ms;
            inputs_.push_back(std::move(request));
            scene_of_.push_back(drawn.scene_index);
        }
    }

    const char* name() const override { return "serve_replay"; }

    void
    Setup(Tracer* tracer) override
    {
        const std::uint32_t warm = tracer ? tracer->Id("serve.warm") : 0;
        ServeConfig config;
        config.threads = threads_;
        config.plan_cache_capacity = kPlanCacheCapacity;
        config.admission.max_queue_depth = kQueueDepth;
        service_ = std::make_unique<RenderService>(config);
        for (const NamedScene& scene : repertoire_) {
            service_->RegisterScene(scene.name, scene.spec);
        }
        warm_costs_.clear();
        for (const NamedScene& scene : repertoire_) {
            Tracer::Scope span(tracer, warm);
            warm_costs_.push_back(service_->WarmScene(scene.name));
        }
    }

    void
    Run(Tracer* tracer, HostClock&) override
    {
        const std::uint32_t submit = tracer ? tracer->Id("serve.submit") : 0;
        const std::uint32_t drain = tracer ? tracer->Id("serve.drain") : 0;
        const std::uint64_t rss_before = CurrentRssBytes();
        for (const SceneRequest& request : inputs_) {
            Tracer::Scope span(tracer, submit);
            service_->Submit(request);
        }
        const std::uint64_t rss_held = CurrentRssBytes();
        if (rss_bytes_per_req_ < 0.0) {
            // First pass of the process only: later passes reuse the
            // allocator's freed pages, so their growth reads as ~0.
            rss_bytes_per_req_ =
                static_cast<double>(rss_held - std::min(rss_held, rss_before)) /
                static_cast<double>(requests_);
        }
        Tracer::Scope span(tracer, drain);
        results_ = service_->WaitAll();
    }

    PassCheck
    Check() override
    {
        PassCheck check;
        check.attempted = requests_;
        stats_ = service_->Snapshot();
        Digest digest;
        std::uint64_t completed = 0;
        if (results_.size() != requests_) {
            check.failed = requests_;
        } else {
            for (std::size_t i = 0; i < results_.size(); ++i) {
                const RenderResult& r = results_[i];
                digest.Add(static_cast<std::uint64_t>(r.status));
                digest.Add(r.latency_ms);
                digest.Add(r.queue_wait_ms);
                digest.Add(r.cost);
                if (r.status != RequestStatus::kCompleted) continue;
                ++completed;
                // Every completed result is its scene's warm prepared
                // cost, bit for bit.
                if (r.scene != inputs_[i].scene ||
                    r.cost != warm_costs_[scene_of_[i]]) {
                    ++check.failed;
                }
            }
        }
        // Prepared-frame hits equal accepted requests, and every
        // accepted request completed.
        const auto gap = [](std::uint64_t a, std::uint64_t b) {
            return a > b ? a - b : b - a;
        };
        check.failed += gap(stats_.cache.frame_hits, stats_.accepted);
        check.failed += gap(completed, stats_.accepted);
        if (check.failed > check.attempted) check.failed = check.attempted;
        check.digest = digest.value();
        check.summary =
            "accepted=" + std::to_string(stats_.accepted) +
            " shed=" + std::to_string(stats_.shed_deadline) +
            " rejected=" + std::to_string(stats_.rejected_queue_full) +
            " virtual_p50_ms=" + std::to_string(stats_.p50_ms) +
            " virtual_p99_ms=" + std::to_string(stats_.p99_ms);
        results_.clear();
        results_.shrink_to_fit();
        service_.reset();
        return check;
    }

    void
    Layers(Tracer& tracer, std::vector<Metric>* out) override
    {
        // Prepared-frame replay, the call each accepted request's pool
        // task makes: PlanCache::Run(PreparedFrame) on pinned frames.
        constexpr int kBatch = 64;
        const std::uint32_t replay = tracer.Id("plan.replay");
        PlanCache cache;
        for (const NamedScene& scene : repertoire_) {
            const auto accel = MakeAccelerator(scene.spec);
            const NerfWorkload workload =
                BuildWorkload(scene.spec.model, scene.spec.params);
            const PlanCache::PreparedFrame frame =
                cache.Prepare(*accel, workload);
            cache.Run(frame);
            for (int rep = 0; rep < 200; ++rep) {
                Tracer::Scope span(&tracer, replay);
                for (int i = 0; i < kBatch; ++i) {
                    Consume(static_cast<std::int64_t>(
                        cache.Run(frame).latency_ms));
                }
            }
        }

        const std::vector<double> submit = tracer.Durations("serve.submit");
        const double submitted = static_cast<double>(stats_.submitted);
        out->push_back({"serve.submit_ns.p50", "ns", Quantile(submit, 0.5)});
        out->push_back({"serve.submit_ns.p99", "ns", Quantile(submit, 0.99)});
        const auto ms = [&tracer](const char* name) {
            return Median(tracer.Durations(name)) * 1e-6;
        };
        out->push_back({"serve.drain_ms", "ms", ms("serve.drain")});
        out->push_back(
            {"serve.rss_bytes_per_req", "bytes", rss_bytes_per_req_});
        out->push_back({"serve.warm_ms", "ms", ms("serve.warm")});
        out->push_back({"serve.accepted", "count",
                        static_cast<double>(stats_.accepted)});
        out->push_back({"serve.shed_share", "ratio",
                        static_cast<double>(stats_.shed_deadline) / submitted});
        out->push_back(
            {"serve.rejected_share", "ratio",
             static_cast<double>(stats_.rejected_queue_full) / submitted});
        out->push_back({"serve.frame_hit_ratio", "ratio",
                        static_cast<double>(stats_.cache.frame_hits) /
                            static_cast<double>(stats_.accepted)});
        out->push_back({"serve.virtual_p99_ms", "ms", stats_.p99_ms});
        out->push_back({"plan.replay_ns", "ns",
                        Median(tracer.Durations("plan.replay", kBatch))});
    }

  private:
    const int threads_;
    const std::size_t requests_;
    const std::vector<NamedScene> repertoire_;
    std::vector<SceneRequest> inputs_;
    std::vector<std::size_t> scene_of_;

    std::unique_ptr<RenderService> service_;
    std::vector<FrameCost> warm_costs_;
    std::vector<RenderResult> results_;
    ServiceStats stats_;
    double rss_bytes_per_req_ = -1.0;
};

}  // namespace

std::unique_ptr<Workload>
MakeServeReplay(const RunConfig& config)
{
    return std::make_unique<ServeReplay>(config);
}

}  // namespace perfbench
