/**
 * @file
 * cluster_mixed: a ShardedRenderService of 3 shards x 1 thread behind a
 * fault-free SimTransport, so every submit round-trips the wire codec.
 * Traffic is Zipf scene popularity with a flash crowd on one scene, two
 * SLO tiers and a batch window; a share of the requests are
 * trajectory-session frames (slow pans with periodic teleports). Each
 * shard's plan cache is bounded below the working set of fused and
 * delta shapes. This reaches the serve/ batch-join, delta-pricing,
 * spill, replica-routing, wire and transport paths that serve_replay
 * bypasses, and compiles new plan shapes while it serves.
 */
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "models/trajectory.h"
#include "models/workload.h"
#include "open_loop.h"
#include "plan/plan_cache.h"
#include "runtime/sweep_runner.h"
#include "scene_repertoire.h"
#include "serve/cluster.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace perfbench {
namespace {

using namespace flexnerfer;

constexpr std::size_t kShards = 3;
constexpr std::size_t kPlanCacheCapacity = 12;
constexpr std::size_t kSessions = 6;
/** Offered load relative to one modeled device (the fleet has 3). */
constexpr double kLoad = 2.7;
constexpr double kSessionShare = 0.2;
/** The flash crowd's scene (Instant-NGP-class, FlexNeRFer INT8 family;
 *  not a session scene). */
constexpr std::size_t kHotScene = 3;
/** Every kTeleportEvery-th frame of a session jumps far away. */
constexpr std::size_t kTeleportEvery = 40;

/** One generated request: a plain submit or a session frame. */
struct Input {
    SceneRequest request;
    int session = -1;  //!< index into the session scenes; -1 = none
    Pose pose;
};

class ClusterMixed : public Workload
{
  public:
    explicit ClusterMixed(const RunConfig& config)
        : threads_(config.threads > 0 ? config.threads : 1),
          seed_(config.seed),
          requests_(config.tiny ? 2000 : 60000),
          repertoire_(PaperSceneRepertoire())
    {
        ServeConfig probe_config;
        probe_config.threads = 1;
        RenderService probe(probe_config);
        double mean_ms = 0.0;
        for (const NamedScene& scene : repertoire_) {
            probe.RegisterScene(scene.name, scene.spec);
            const double est =
                EstimatedServiceMs(probe.WarmScene(scene.name));
            mean_ms += est;
            max_est_ms_ = std::max(max_est_ms_, est);
        }
        mean_ms /= static_cast<double>(repertoire_.size());

        // The workload's shape is fixed; the seed draws only the
        // per-request stream, so every seed lands in the same regime.
        // Session scenes are distinct (a session's telemetry row is
        // identified by its scene) and span the three device families.
        const std::size_t session_scene_index[kSessions] = {0, 4, 8, 12, 16,
                                                            20};
        const double pan_step[kSessions] = {0.005, 0.01, 0.02,
                                            0.03,  0.04, 0.05};
        for (std::size_t index : session_scene_index) {
            session_scenes_.push_back(repertoire_[index].name);
        }
        Rng rng(config.seed ^ 0x5e55107ull);

        // Nominal span of the stream at the base load places the flash
        // crowd in its middle third.
        const double span_ms =
            static_cast<double>(requests_) * mean_ms / kLoad;
        ZooScenarioConfig zoo;
        zoo.load = kLoad;
        zoo.zipf_exponent = 1.1;
        zoo.flash_start_ms = span_ms / 3.0;
        zoo.flash_end_ms = 2.0 * span_ms / 3.0;
        zoo.flash_rate_boost = 2.0;
        zoo.flash_hot_share = 0.5;
        zoo.hot_scene = kHotScene;
        zoo.mix = {{0, /*priority=*/1, 0.3}, {1, /*priority=*/0, 0.7}};
        TrafficZooStream stream(config.seed, mean_ms, repertoire_.size(),
                                zoo);

        std::vector<std::size_t> frames(kSessions, 0);
        std::vector<Pose> pose(kSessions);
        inputs_.reserve(requests_);
        for (std::size_t i = 0; i < requests_; ++i) {
            const OpenLoopRequest drawn = stream.Next();
            Input input;
            input.request.arrival_ms = drawn.arrival_ms;
            input.request.tier = drawn.tier;
            input.request.priority = drawn.priority;
            if (rng.Uniform(0.0, 1.0) < kSessionShare) {
                const auto s = static_cast<std::size_t>(rng.UniformInt(
                    0, static_cast<std::int64_t>(kSessions) - 1));
                if (frames[s] > 0) pose[s].x += pan_step[s];
                if (frames[s] > 0 && frames[s] % kTeleportEvery == 0) {
                    pose[s].x += 10.0;
                }
                ++frames[s];
                input.session = static_cast<int>(s);
                input.pose = pose[s];
                input.request.scene = session_scenes_[s];
            } else {
                input.request.scene = repertoire_[drawn.scene_index].name;
            }
            inputs_.push_back(std::move(input));
        }
    }

    const char* name() const override { return "cluster_mixed"; }

    void
    Setup(Tracer* tracer) override
    {
        const std::uint32_t warm = tracer ? tracer->Id("serve.warm") : 0;
        transport_ = std::make_unique<SimTransport>(seed_);
        ClusterConfig config;
        config.shards = kShards;
        config.threads_per_shard = threads_;
        config.plan_cache_capacity = kPlanCacheCapacity;
        config.admission.max_queue_depth = 0;
        TierPolicy paid;
        paid.name = "paid";
        paid.weight = 4.0;
        paid.default_deadline_ms = 3.0 * max_est_ms_;
        paid.max_queue_depth = 256;
        TierPolicy free_tier;
        free_tier.name = "free";
        free_tier.weight = 1.0;
        free_tier.default_deadline_ms = 12.0 * max_est_ms_;
        free_tier.max_queue_depth = 64;
        config.admission.tiers = {paid, free_tier};
        config.batch_window_ms = 0.05 * max_est_ms_;
        config.transport = transport_.get();
        config.replication.top_k = 2;
        config.replication.refresh_every = 2000;
        cluster_ = std::make_unique<ShardedRenderService>(config);
        for (const NamedScene& scene : repertoire_) {
            cluster_->RegisterScene(scene.name, scene.spec);
        }
        for (const NamedScene& scene : repertoire_) {
            Tracer::Scope span(tracer, warm);
            cluster_->WarmScene(scene.name);
        }
        sessions_.clear();
        for (const std::string& scene : session_scenes_) {
            sessions_.push_back(cluster_->OpenSession(scene));
        }
    }

    void
    Run(Tracer* tracer, HostClock&) override
    {
        const std::uint32_t submit =
            tracer ? tracer->Id("serve.cluster_submit") : 0;
        const std::uint32_t drain =
            tracer ? tracer->Id("serve.cluster_drain") : 0;
        for (const Input& input : inputs_) {
            SubmitOptions options;
            if (input.session >= 0) {
                options.session =
                    sessions_[static_cast<std::size_t>(input.session)];
                options.pose = input.pose;
            }
            Tracer::Scope span(tracer, submit);
            cluster_->Submit(input.request, options);
        }
        Tracer::Scope span(tracer, drain);
        results_ = cluster_->WaitAll();
    }

    PassCheck
    Check() override
    {
        PassCheck check;
        check.attempted = requests_;
        stats_ = cluster_->Snapshot();
        transport_stats_ = transport_->stats();
        Digest digest;
        std::uint64_t by_status[4] = {0, 0, 0, 0};
        std::map<std::string, std::uint64_t> session_accepted;
        if (results_.size() != requests_) {
            check.failed = requests_;
        } else {
            for (std::size_t i = 0; i < results_.size(); ++i) {
                const ClusterRenderResult& r = results_[i];
                const auto status = static_cast<std::size_t>(r.result.status);
                if (status >= 4) {
                    ++check.failed;
                    continue;
                }
                ++by_status[status];
                digest.Add(static_cast<std::uint64_t>(status));
                digest.Add(static_cast<std::uint64_t>(r.shard));
                digest.Add(static_cast<std::uint64_t>(r.spilled));
                digest.Add(r.spill_surcharge_ms);
                digest.Add(r.rpc_delay_ms);
                digest.Add(r.result.latency_ms);
                digest.Add(r.result.queue_wait_ms);
                digest.Add(
                    static_cast<std::uint64_t>(r.result.batch_elements));
                digest.Add(r.result.cost);
                if (inputs_[i].session >= 0 &&
                    r.result.status == RequestStatus::kCompleted) {
                    ++session_accepted[inputs_[i].request.scene];
                }
            }
        }
        const auto gap = [](std::uint64_t a, std::uint64_t b) {
            return a > b ? a - b : b - a;
        };
        // Conservation: submitted = completed + rejected + shed +
        // transport-failed, from the results and from the counters.
        const std::uint64_t resolved = by_status[0] + by_status[1] +
                                       by_status[2] + by_status[3];
        check.failed += gap(resolved, requests_);
        check.failed += gap(stats_.cluster_submitted, requests_);
        check.failed += gap(stats_.completed + stats_.rejected_queue_full +
                                stats_.shed_deadline +
                                stats_.transport_failures,
                            stats_.cluster_submitted);
        check.failed += gap(stats_.completed, by_status[0]);
        // Each session's delta plus full frames equal its accepted
        // session frames.
        for (const std::string& scene : session_scenes_) {
            std::uint64_t priced = 0;
            for (const ShardTelemetry& shard : stats_.per_shard) {
                for (const SessionStats& s : shard.service.sessions) {
                    if (s.scene == scene) {
                        priced += s.delta_frames + s.full_frames;
                    }
                }
            }
            check.failed += gap(priced, session_accepted[scene]);
        }
        if (check.failed > check.attempted) check.failed = check.attempted;
        check.digest = digest.value();
        check.summary =
            "accepted=" + std::to_string(stats_.accepted) +
            " shed=" + std::to_string(stats_.shed_deadline) +
            " rejected=" + std::to_string(stats_.rejected_queue_full) +
            " transport_failed=" + std::to_string(stats_.transport_failures) +
            " spilled=" + std::to_string(stats_.spilled) +
            " delta_frames=" + std::to_string(stats_.delta_frames) +
            " fused_batches=" + std::to_string(stats_.fused_batches) +
            " virtual_p99_ms=" + std::to_string(stats_.p99_ms);
        // Kept for the traced run's wire and estimator probes.
        sample_results_.assign(
            results_.begin(),
            results_.begin() + static_cast<std::ptrdiff_t>(
                                   std::min<std::size_t>(results_.size(),
                                                         4096)));
        results_.clear();
        results_.shrink_to_fit();
        cluster_.reset();
        transport_.reset();
        return check;
    }

    void
    Layers(Tracer& tracer, std::vector<Metric>* out) override
    {
        constexpr int kBatch = 64;
        const std::size_t sample = sample_results_.size();

        // serve/shard_router: the cluster caches each scene's rank, so
        // the probe calls Rank on the stream's scenes directly.
        const ShardRouter router(kShards);
        const std::uint32_t route = tracer.Id("serve.route");
        for (std::size_t i = 0; i + kBatch <= sample; i += kBatch) {
            Tracer::Scope span(&tracer, route);
            for (int j = 0; j < kBatch; ++j) {
                Consume(static_cast<std::int64_t>(
                    router.Rank(inputs_[i + j].request.scene)[0]));
            }
        }

        // serve/wire: each request crosses as a SceneRequest frame and
        // returns as a RenderResult frame.
        const std::uint32_t encode = tracer.Id("serve.wire_encode");
        const std::uint32_t decode = tracer.Id("serve.wire_decode");
        double bytes = 0.0;
        std::vector<std::string> frames(2 * kBatch);
        for (std::size_t i = 0; i + kBatch <= sample; i += kBatch) {
            {
                Tracer::Scope span(&tracer, encode);
                for (int j = 0; j < kBatch; ++j) {
                    frames[2 * j] =
                        wire::EncodeSceneRequest(inputs_[i + j].request);
                    frames[2 * j + 1] =
                        wire::EncodeRenderResult(sample_results_[i + j].result);
                }
            }
            Tracer::Scope span(&tracer, decode);
            for (int j = 0; j < kBatch; ++j) {
                Consume(static_cast<std::int64_t>(
                    wire::DecodeSceneRequest(frames[2 * j]).tier));
                Consume(static_cast<std::int64_t>(
                    wire::DecodeRenderResult(frames[2 * j + 1]).tier));
                bytes += static_cast<double>(frames[2 * j].size() +
                                             frames[2 * j + 1].size());
            }
        }

        // accel: the unified service-time estimator the router prices
        // every probe with.
        const std::uint32_t estimate = tracer.Id("accel.estimate");
        for (std::size_t i = 0; i + kBatch <= sample; i += kBatch) {
            Tracer::Scope span(&tracer, estimate);
            for (int j = 0; j < kBatch; ++j) {
                EstimateContext context;
                const FrameCost& cost = sample_results_[i + j].result.cost;
                if (j % 2 == 1) {
                    context.kind = EstimateKind::kDelta;
                    context.reference = &sample_results_[i].result.cost;
                }
                Consume(static_cast<std::int64_t>(
                    Accelerator::Estimate(cost, context).service_ms));
            }
        }

        // models + plan: the delta shapes a session frame compiles,
        // cold, on a fresh cache per session scene.
        const std::uint32_t delta_workload = tracer.Id("models.delta_workload");
        const std::uint32_t prepare_delta = tracer.Id("plan.prepare_delta");
        const CoherenceModel coherence;
        for (const std::string& scene : session_scenes_) {
            const NamedScene* named = nullptr;
            for (const NamedScene& s : repertoire_) {
                if (s.name == scene) named = &s;
            }
            const auto accel = MakeAccelerator(named->spec);
            const NerfWorkload base =
                BuildWorkload(named->spec.model, named->spec.params);
            PlanCache cache;
            const PlanCache::PreparedFrame full = cache.Prepare(*accel, base);
            cache.Run(full);
            for (std::size_t q = 16; q < coherence.reuse_quanta; q += 4) {
                NerfWorkload delta;
                {
                    Tracer::Scope span(&tracer, delta_workload);
                    delta = DeltaWorkload(base, q, coherence.reuse_quanta);
                }
                Tracer::Scope span(&tracer, prepare_delta);
                cache.PrepareDelta(full, *accel, delta);
            }
        }

        const std::vector<double> submit =
            tracer.Durations("serve.cluster_submit");
        const double submitted = static_cast<double>(stats_.cluster_submitted);
        out->push_back(
            {"serve.cluster_submit_ns.p50", "ns", Quantile(submit, 0.5)});
        out->push_back(
            {"serve.cluster_submit_ns.p99", "ns", Quantile(submit, 0.99)});
        out->push_back({"serve.route_ns", "ns",
                        Median(tracer.Durations("serve.route", kBatch))});
        out->push_back({"serve.wire_encode_ns", "ns",
                        Median(tracer.Durations("serve.wire_encode", kBatch))});
        out->push_back({"serve.wire_decode_ns", "ns",
                        Median(tracer.Durations("serve.wire_decode", kBatch))});
        out->push_back({"serve.wire_bytes_per_req", "bytes",
                        bytes / static_cast<double>(sample - sample % kBatch)});
        out->push_back({"serve.batch_occupancy", "ratio",
                        stats_.batch_occupancy});
        out->push_back(
            {"serve.delta_hit_rate", "ratio", stats_.delta_hit_rate});
        out->push_back({"serve.spill_share", "ratio",
                        static_cast<double>(stats_.spilled) / submitted});
        out->push_back({"serve.transport_retries", "count",
                        static_cast<double>(transport_stats_.retries)});
        std::uint64_t misses = 0;
        std::uint64_t frame_hits = 0;
        std::uint64_t evictions = 0;
        for (const ShardTelemetry& shard : stats_.per_shard) {
            misses += shard.service.cache.plan_misses;
            frame_hits += shard.service.cache.frame_hits;
            evictions += shard.service.cache.evictions;
        }
        out->push_back({"plan.misses", "count", static_cast<double>(misses)});
        out->push_back(
            {"plan.frame_hits", "count", static_cast<double>(frame_hits)});
        out->push_back(
            {"plan.evictions", "count", static_cast<double>(evictions)});
        out->push_back(
            {"plan.prepare_delta_us", "us",
             Median(tracer.Durations("plan.prepare_delta")) * 1e-3});
        out->push_back(
            {"models.delta_workload_us", "us",
             Median(tracer.Durations("models.delta_workload")) * 1e-3});
        out->push_back({"accel.estimate_ns", "ns",
                        Median(tracer.Durations("accel.estimate", kBatch))});
    }

  private:
    const int threads_;
    const std::uint64_t seed_;
    const std::size_t requests_;
    const std::vector<NamedScene> repertoire_;
    double max_est_ms_ = 0.0;
    std::vector<std::string> session_scenes_;
    std::vector<Input> inputs_;

    std::unique_ptr<SimTransport> transport_;
    std::unique_ptr<ShardedRenderService> cluster_;
    std::vector<SessionId> sessions_;
    std::vector<ClusterRenderResult> results_;
    std::vector<ClusterRenderResult> sample_results_;
    ClusterStats stats_;
    SimTransport::Stats transport_stats_;
};

}  // namespace

std::unique_ptr<Workload>
MakeClusterMixed(const RunConfig& config)
{
    return std::make_unique<ClusterMixed>(config);
}

}  // namespace perfbench
