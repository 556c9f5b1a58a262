/**
 * @file
 * Deterministic chaos drills for the cross-host cluster: a seeded
 * sweep of kill / partition / loss fault schedules, each asserting the
 * conservation identities (every ticket resolves exactly once, shard
 * admissions reconcile with router submissions via replays and
 * transport failures, the merged latency histogram's count equals the
 * lifetime accepted count) and thread-count invariance (threads 1 and
 * 8 produce field-identical verdicts and telemetry for the same seed),
 * plus wire-format death tests: magic / version / type / size
 * mismatches are Fatal, never a silent misparse.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/cluster_controller.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace flexnerfer {
namespace {

SweepPoint
FlexScene(const std::string& model)
{
    SweepPoint spec;
    spec.backend = Backend::kFlexNeRFer;
    spec.precision = Precision::kInt8;
    spec.model = model;
    return spec;
}

/** Cheap models only: the drills care about routing, not rendering. */
const std::vector<std::string>&
ChaosModels()
{
    static const std::vector<std::string> models = {
        "Instant-NGP", "KiloNeRF", "NSVF", "TensoRF", "IBRNet"};
    return models;
}

/** Fixed overloaded schedule, a pure function of @p seed. */
std::vector<SceneRequest>
ChaosSchedule(std::uint64_t seed, const std::vector<double>& est_ms,
              double mean_est_ms, std::size_t requests)
{
    Rng rng(seed);
    std::vector<SceneRequest> schedule;
    double arrival = 0.0;
    const double mean_interarrival = mean_est_ms / 3.0;  // overloaded
    for (std::size_t i = 0; i < requests; ++i) {
        arrival += -mean_interarrival *
                   std::log(1.0 - rng.Uniform(0.0, 1.0));
        const auto scene = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(est_ms.size()) - 1));
        SceneRequest request;
        request.scene = ChaosModels()[scene];
        request.arrival_ms = arrival;
        request.priority = static_cast<int>(rng.UniformInt(0, 2));
        request.deadline_ms = 1.5 * est_ms[scene] +
                              mean_est_ms * rng.Uniform(0.0, 4.0);
        schedule.push_back(std::move(request));
    }
    return schedule;
}

enum class FaultPlan { kKill, kPartition, kLoss };

/** The fault schedule: a pure function of (seed, plan, span). */
void
ScheduleFaults(ClusterController& controller, FaultPlan plan,
               std::uint64_t seed, double span_ms, std::size_t shards)
{
    switch (plan) {
        case FaultPlan::kKill: {
            // One death a third in, a second (possibly redundant —
            // the controller skips unsafe kills) two thirds in.
            FaultEvent death;
            death.kind = FaultEvent::Kind::kShardDeath;
            death.link = seed % shards;
            death.start_ms = span_ms / 3.0;
            controller.ScheduleFault(death);
            death.link = (seed / 7) % shards;
            death.start_ms = 2.0 * span_ms / 3.0;
            controller.ScheduleFault(death);
            break;
        }
        case FaultPlan::kPartition: {
            FaultEvent partition;
            partition.kind = FaultEvent::Kind::kPartition;
            partition.link = seed % shards;
            partition.start_ms = span_ms / 4.0;
            partition.end_ms = span_ms / 2.0;
            controller.ScheduleFault(partition);
            break;
        }
        case FaultPlan::kLoss: {
            FaultEvent loss;
            loss.kind = FaultEvent::Kind::kLoss;
            loss.link = SimTransport::kAllLinks;
            loss.start_ms = span_ms / 5.0;
            loss.end_ms = 3.0 * span_ms / 5.0;
            loss.magnitude = 0.55;
            controller.ScheduleFault(loss);
            FaultEvent spike;
            spike.kind = FaultEvent::Kind::kDelaySpike;
            spike.link = (seed + 1) % shards;
            spike.start_ms = 0.0;
            spike.end_ms = span_ms;
            spike.magnitude = 0.2;
            controller.ScheduleFault(spike);
            break;
        }
    }
}

struct ChaosRun {
    std::vector<ClusterRenderResult> results;
    ClusterStats stats;
    std::uint64_t transport_failed_messages = 0;
};

ChaosRun
RunChaos(std::uint64_t seed, FaultPlan plan, int threads_per_shard,
         std::size_t requests = 120)
{
    ClusterControllerConfig config;
    config.cluster.shards = 4;
    config.cluster.threads_per_shard = threads_per_shard;
    config.cluster.admission.max_queue_depth = 8;
    config.transport_seed = seed;
    ClusterController controller(config);

    std::vector<double> est_ms;
    double mean = 0.0;
    for (const std::string& model : ChaosModels()) {
        controller.RegisterScene(model, FlexScene(model));
    }
    for (const std::string& model : ChaosModels()) {
        est_ms.push_back(EstimatedServiceMs(controller.WarmScene(model)));
        mean += est_ms.back();
    }
    mean /= static_cast<double>(est_ms.size());

    const std::vector<SceneRequest> schedule =
        ChaosSchedule(seed, est_ms, mean, requests);
    const double span_ms = schedule.back().arrival_ms;
    ScheduleFaults(controller, plan, seed, span_ms, 4);

    for (const SceneRequest& request : schedule) {
        controller.Submit(request);
    }
    ChaosRun run;
    run.results = controller.WaitAll();
    run.stats = controller.Snapshot();
    run.transport_failed_messages = controller.transport().stats().failed;
    return run;
}

/** The conservation identities every drill must satisfy. */
void
CheckConservation(const ChaosRun& run, std::size_t requests)
{
    ASSERT_EQ(run.results.size(), requests);
    std::uint64_t completed = 0, shed = 0, rejected = 0, failed = 0;
    std::uint64_t replayed = 0;
    for (const ClusterRenderResult& r : run.results) {
        switch (r.result.status) {
            case RequestStatus::kCompleted: ++completed; break;
            case RequestStatus::kShedDeadline: ++shed; break;
            case RequestStatus::kRejectedQueueFull: ++rejected; break;
            case RequestStatus::kFailedTransport: ++failed; break;
        }
        if (r.replayed) ++replayed;
        // A transport failure never carries a rendered result and is
        // flagged consistently.
        EXPECT_EQ(r.transport_failed,
                  r.result.status == RequestStatus::kFailedTransport);
    }
    // Every ticket resolved exactly once, into exactly one status.
    EXPECT_EQ(completed + shed + rejected + failed, requests);

    const ClusterStats& stats = run.stats;
    EXPECT_EQ(stats.cluster_submitted, requests);
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.shed_deadline, shed);
    EXPECT_EQ(stats.rejected_queue_full, rejected);
    EXPECT_EQ(stats.transport_failures, failed);
    EXPECT_EQ(stats.replayed, replayed);
    // Shard-level admissions reconcile with router submissions: a
    // replayed ticket admits twice, a transport failure never admits.
    EXPECT_EQ(stats.submitted,
              stats.cluster_submitted - stats.transport_failures +
                  stats.replayed);
    // The merged histogram folds every epoch, dead shards included:
    // its exact count must equal the lifetime accepted count.
    EXPECT_EQ(stats.latency_samples, stats.accepted);
    EXPECT_EQ(stats.completed, stats.accepted);
    // Live per-shard rows keep the prepared-path invariant; dead rows
    // are zeroed.
    for (const ShardTelemetry& shard : stats.per_shard) {
        if (shard.alive) {
            EXPECT_EQ(shard.service.cache.frame_hits,
                      shard.service.accepted);
        } else {
            EXPECT_EQ(shard.service.submitted, 0u);
            EXPECT_EQ(shard.service.accepted, 0u);
        }
    }
    EXPECT_EQ(run.transport_failed_messages, failed);
}

void
ExpectIdenticalRuns(const ChaosRun& a, const ChaosRun& b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const ClusterRenderResult& ra = a.results[i];
        const ClusterRenderResult& rb = b.results[i];
        EXPECT_EQ(ra.result.status, rb.result.status) << "request " << i;
        EXPECT_EQ(ra.result.scene, rb.result.scene) << "request " << i;
        EXPECT_EQ(ra.result.latency_ms, rb.result.latency_ms)
            << "request " << i;
        EXPECT_EQ(ra.shard, rb.shard) << "request " << i;
        EXPECT_EQ(ra.home_shard, rb.home_shard) << "request " << i;
        EXPECT_EQ(ra.spilled, rb.spilled) << "request " << i;
        EXPECT_EQ(ra.spill_surcharge_ms, rb.spill_surcharge_ms)
            << "request " << i;
        EXPECT_EQ(ra.replayed, rb.replayed) << "request " << i;
        EXPECT_EQ(ra.transport_failed, rb.transport_failed)
            << "request " << i;
        EXPECT_EQ(ra.rpc_delay_ms, rb.rpc_delay_ms) << "request " << i;
    }
    EXPECT_EQ(a.stats.submitted, b.stats.submitted);
    EXPECT_EQ(a.stats.accepted, b.stats.accepted);
    EXPECT_EQ(a.stats.rejected_queue_full, b.stats.rejected_queue_full);
    EXPECT_EQ(a.stats.shed_deadline, b.stats.shed_deadline);
    EXPECT_EQ(a.stats.spilled, b.stats.spilled);
    EXPECT_EQ(a.stats.transport_failures, b.stats.transport_failures);
    EXPECT_EQ(a.stats.replayed, b.stats.replayed);
    EXPECT_EQ(a.stats.killed_shards, b.stats.killed_shards);
    EXPECT_EQ(a.stats.p50_ms, b.stats.p50_ms);
    EXPECT_EQ(a.stats.p99_ms, b.stats.p99_ms);
    EXPECT_EQ(a.stats.mean_ms, b.stats.mean_ms);
    EXPECT_EQ(a.stats.latency_sum_ms, b.stats.latency_sum_ms);
    EXPECT_EQ(a.stats.makespan_ms, b.stats.makespan_ms);
    EXPECT_EQ(a.stats.utilization, b.stats.utilization);
    EXPECT_EQ(a.transport_failed_messages, b.transport_failed_messages);
}

// ---------------------------------------------------------------------
// The seeded sweep: 10 seeds x {kill, partition, loss}.
// ---------------------------------------------------------------------

class ChaosSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, FaultPlan>>
{};

TEST_P(ChaosSweep, ConservationHoldsAndThreadsAreInvariant)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const FaultPlan plan = std::get<1>(GetParam());

    const ChaosRun single = RunChaos(seed, plan, 1);
    CheckConservation(single, 120);

    const ChaosRun wide = RunChaos(seed, plan, 8);
    CheckConservation(wide, 120);
    ExpectIdenticalRuns(single, wide);

    // Kill plans must actually exercise the replay path for at least
    // one seed-independent guarantee: the first death always lands
    // (the cluster starts with 4 live shards).
    if (plan == FaultPlan::kKill) {
        EXPECT_GE(single.stats.killed_shards, 1u);
    }
    // Loss plans must actually drop traffic terminally for the
    // conservation identity to be load-bearing.
    if (plan == FaultPlan::kLoss) {
        EXPECT_GE(single.stats.transport_failures, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeededFaults, ChaosSweep,
    ::testing::Combine(::testing::Values(11u, 12u, 13u, 14u, 15u, 16u,
                                         17u, 18u, 19u, 20u),
                       ::testing::Values(FaultPlan::kKill,
                                         FaultPlan::kPartition,
                                         FaultPlan::kLoss)),
    [](const ::testing::TestParamInfo<ChaosSweep::ParamType>& info) {
        const char* plan = "";
        switch (std::get<1>(info.param)) {
            case FaultPlan::kKill: plan = "Kill"; break;
            case FaultPlan::kPartition: plan = "Partition"; break;
            case FaultPlan::kLoss: plan = "Loss"; break;
        }
        return std::string(plan) + "Seed" +
               std::to_string(std::get<0>(info.param));
    });

// ---------------------------------------------------------------------
// Quick non-parameterized drills (the smoke slice).
// ---------------------------------------------------------------------

TEST(ChaosQuick, KillReplaysInFlightTicketsExactlyOnce)
{
    const ChaosRun run = RunChaos(11u, FaultPlan::kKill, 2);
    CheckConservation(run, 120);
    EXPECT_GE(run.stats.killed_shards, 1u);
    // Replays re-admit on a live shard: every replayed ticket still
    // resolved, and none resolved twice (conservation above), so the
    // replay count is exactly the number of flagged results.
    std::uint64_t flagged = 0;
    for (const ClusterRenderResult& r : run.results) {
        if (r.replayed) {
            ++flagged;
            EXPECT_NE(r.result.status, RequestStatus::kFailedTransport);
        }
    }
    EXPECT_EQ(run.stats.replayed, flagged);
}

TEST(ChaosQuick, KillWithEveryAcceptInFlightReconciles)
{
    // The extreme kill: every request the victim accepted is still in
    // flight at the death instant, so every one of them replays and
    // the victim retires with zero real completions. Lifetime telemetry
    // must still count each request once, and the victim's span must
    // still count as capacity — it was busy that whole time.
    std::string heavy_model = ChaosModels().front();
    std::string light_model = heavy_model;
    double heavy_ms = 0.0;
    double light_ms = 0.0;
    {
        RenderService probe;
        for (const std::string& model : ChaosModels()) {
            probe.RegisterScene(model, FlexScene(model));
            const double est = EstimatedServiceMs(probe.WarmScene(model));
            if (heavy_ms == 0.0 || est > heavy_ms) {
                heavy_ms = est;
                heavy_model = model;
            }
            if (light_ms == 0.0 || est < light_ms) {
                light_ms = est;
                light_model = model;
            }
        }
    }
    ASSERT_LT(light_ms, heavy_ms);

    // One scene homed on each of two shards: the heavy one on the
    // victim, the light one on the survivor.
    const ShardRouter router(2);
    std::string victim_scene;
    std::string survivor_scene;
    for (int i = 0; victim_scene.empty() || survivor_scene.empty(); ++i) {
        const std::string name = "scene-" + std::to_string(i);
        std::string& slot =
            router.Home(name) == 0 ? victim_scene : survivor_scene;
        if (slot.empty()) slot = name;
    }

    ClusterConfig config;
    config.shards = 2;
    config.threads_per_shard = 1;
    ShardedRenderService cluster(config);
    cluster.RegisterScene(victim_scene, FlexScene(heavy_model));
    cluster.RegisterScene(survivor_scene, FlexScene(light_model));
    cluster.WarmScene(victim_scene);
    cluster.WarmScene(survivor_scene);

    SceneRequest request;
    request.scene = survivor_scene;
    cluster.Submit(request);
    request.scene = victim_scene;
    for (int i = 0; i < 3; ++i) cluster.Submit(request);

    // Between the survivor going idle and the victim's first
    // completion: all three victim accepts are in flight.
    const double kill_ms = 0.5 * (light_ms + heavy_ms);
    EXPECT_EQ(cluster.KillShard(0, kill_ms), 3u);
    const std::vector<ClusterRenderResult> results = cluster.WaitAll();
    ASSERT_EQ(results.size(), 4u);
    for (const ClusterRenderResult& r : results) {
        EXPECT_EQ(r.result.status, RequestStatus::kCompleted);
        EXPECT_EQ(r.shard, 1u);
    }

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.cluster_submitted, 4u);
    EXPECT_EQ(stats.replayed, 3u);
    EXPECT_EQ(stats.submitted, 7u);
    EXPECT_EQ(stats.accepted, 4u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.latency_samples, 4u);
    ASSERT_EQ(stats.tiers.size(), 1u);
    EXPECT_EQ(stats.tiers[0].accepted, 4u);
    // Busy time keeps the victim's phantom service, so utilization only
    // stays a fraction if the victim's span stays in the capacity.
    EXPECT_GT(stats.utilization, 0.0);
    EXPECT_LE(stats.utilization, 1.0);
}

TEST(ChaosQuick, PartitionFailsRequestsTerminallyAndDeterministically)
{
    const ChaosRun run = RunChaos(13u, FaultPlan::kPartition, 2);
    CheckConservation(run, 120);
    // A partition outlasting the retry budget is a terminal failure:
    // the partitioned link's home traffic dies on the wire.
    EXPECT_GE(run.stats.transport_failures, 1u);
    for (const ClusterRenderResult& r : run.results) {
        if (r.transport_failed) {
            EXPECT_EQ(r.result.latency_ms, 0.0);
            EXPECT_FALSE(r.replayed);
        }
    }
}

TEST(ChaosQuick, FaultFreeTransportMatchesInProcessCluster)
{
    // The wire layer is verdict-transparent without faults: the same
    // schedule through a transport-attached cluster and a plain one
    // produces identical verdicts and telemetry (rpc_delay_ms aside).
    ClusterConfig plain_config;
    plain_config.shards = 4;
    plain_config.threads_per_shard = 2;
    plain_config.admission.max_queue_depth = 8;
    ShardedRenderService plain(plain_config);

    ClusterControllerConfig wired_config;
    wired_config.cluster = plain_config;
    ClusterController wired(wired_config);

    std::vector<double> est_ms;
    double mean = 0.0;
    for (const std::string& model : ChaosModels()) {
        plain.RegisterScene(model, FlexScene(model));
        wired.RegisterScene(model, FlexScene(model));
    }
    for (const std::string& model : ChaosModels()) {
        est_ms.push_back(EstimatedServiceMs(plain.WarmScene(model)));
        wired.WarmScene(model);
        mean += est_ms.back();
    }
    mean /= static_cast<double>(est_ms.size());

    for (const SceneRequest& request :
         ChaosSchedule(42u, est_ms, mean, 100)) {
        plain.Submit(request);
        wired.Submit(request);
    }
    const std::vector<ClusterRenderResult> a = plain.WaitAll();
    const std::vector<ClusterRenderResult> b = wired.WaitAll();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].result.status, b[i].result.status);
        EXPECT_EQ(a[i].result.latency_ms, b[i].result.latency_ms);
        EXPECT_EQ(a[i].shard, b[i].shard);
        EXPECT_EQ(a[i].spilled, b[i].spilled);
        EXPECT_EQ(b[i].rpc_delay_ms > 0.0, true) << "request " << i;
    }
    EXPECT_EQ(plain.Snapshot().accepted, wired.Snapshot().accepted);
    EXPECT_EQ(wired.Snapshot().transport_failures, 0u);
}

TEST(ChaosQuick, ConcurrentWaitersRoundTripTheWire)
{
    // Finish runs outside the cluster mutex, so concurrent waiters
    // round-trip results through the wire codec at the same time: each
    // must use its own buffers (the sanitizer tier runs this), and
    // every result must still match the in-process cluster's.
    ClusterConfig plain_config;
    plain_config.shards = 4;
    plain_config.threads_per_shard = 2;
    plain_config.admission.max_queue_depth = 8;
    ShardedRenderService plain(plain_config);

    ClusterControllerConfig wired_config;
    wired_config.cluster = plain_config;
    ClusterController wired(wired_config);

    std::vector<double> est_ms;
    double mean = 0.0;
    for (const std::string& model : ChaosModels()) {
        plain.RegisterScene(model, FlexScene(model));
        wired.RegisterScene(model, FlexScene(model));
    }
    for (const std::string& model : ChaosModels()) {
        est_ms.push_back(EstimatedServiceMs(plain.WarmScene(model)));
        wired.WarmScene(model);
        mean += est_ms.back();
    }
    mean /= static_cast<double>(est_ms.size());

    std::vector<ClusterTicket> tickets;
    for (const SceneRequest& request :
         ChaosSchedule(43u, est_ms, mean, 200)) {
        plain.Submit(request);
        tickets.push_back(wired.Submit(request));
    }
    const std::vector<ClusterRenderResult> expected = plain.WaitAll();
    ASSERT_EQ(expected.size(), tickets.size());

    constexpr std::size_t kWaiters = 4;
    std::vector<ClusterRenderResult> got(tickets.size());
    std::vector<std::thread> waiters;
    for (std::size_t w = 0; w < kWaiters; ++w) {
        waiters.emplace_back([&, w] {
            for (std::size_t i = w; i < tickets.size(); i += kWaiters) {
                got[i] = wired.Wait(tickets[i]);
            }
        });
    }
    for (std::thread& waiter : waiters) waiter.join();
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].result.status, expected[i].result.status)
            << "request " << i;
        EXPECT_EQ(got[i].result.scene, expected[i].result.scene);
        EXPECT_EQ(got[i].result.cost, expected[i].result.cost);
        EXPECT_EQ(got[i].result.latency_ms, expected[i].result.latency_ms);
        EXPECT_EQ(got[i].result.batch_elements,
                  expected[i].result.batch_elements);
    }
}

// ---------------------------------------------------------------------
// Wire-format death tests: version skew is Fatal, never a misparse.
// ---------------------------------------------------------------------

SceneRequest
WireRequest()
{
    SceneRequest request;
    request.scene = "ngp";
    request.tier = 1;
    request.priority = 2;
    request.deadline_ms = 7.5;
    request.arrival_ms = 123.25;
    return request;
}

RenderResult
WireResult()
{
    RenderResult result;
    result.status = RequestStatus::kShedDeadline;
    result.scene = "ngp";
    result.tier = 2;
    result.cost.latency_ms = 4.5;
    result.cost.gemm_macs = 1e9;
    result.queue_wait_ms = 1.25;
    result.latency_ms = 5.75;
    result.batch_elements = 3;
    return result;
}

TEST(WireFormat, RoundTripsEveryField)
{
    const SceneRequest request = WireRequest();
    const SceneRequest back =
        wire::DecodeSceneRequest(wire::EncodeSceneRequest(request));
    EXPECT_EQ(back.scene, request.scene);
    EXPECT_EQ(back.tier, request.tier);
    EXPECT_EQ(back.priority, request.priority);
    EXPECT_EQ(back.deadline_ms, request.deadline_ms);
    EXPECT_EQ(back.arrival_ms, request.arrival_ms);

    const RenderResult result = WireResult();
    const RenderResult result_back =
        wire::DecodeRenderResult(wire::EncodeRenderResult(result));
    EXPECT_EQ(result_back.status, result.status);
    EXPECT_EQ(result_back.scene, result.scene);
    EXPECT_EQ(result_back.tier, result.tier);
    EXPECT_EQ(result_back.cost, result.cost);
    EXPECT_EQ(result_back.queue_wait_ms, result.queue_wait_ms);
    EXPECT_EQ(result_back.latency_ms, result.latency_ms);
    EXPECT_EQ(result_back.batch_elements, result.batch_elements);

    wire::WireSnapshot snapshot;
    snapshot.shard = 2;
    snapshot.submitted = 10;
    snapshot.accepted = 8;
    snapshot.rejected_queue_full = 1;
    snapshot.shed_deadline = 1;
    snapshot.completed = 8;
    snapshot.busy_ms = 99.5;
    snapshot.p50_latency_ms = 3.25;
    snapshot.p99_latency_ms = 9.75;
    const wire::WireSnapshot snap_back =
        wire::DecodeSnapshot(wire::EncodeSnapshot(snapshot));
    EXPECT_EQ(snap_back.shard, snapshot.shard);
    EXPECT_EQ(snap_back.submitted, snapshot.submitted);
    EXPECT_EQ(snap_back.accepted, snapshot.accepted);
    EXPECT_EQ(snap_back.busy_ms, snapshot.busy_ms);
    EXPECT_EQ(snap_back.p99_latency_ms, snapshot.p99_latency_ms);

    // The header type byte (offset 6) is part of the format: a retired
    // tag must not renumber the live ones.
    EXPECT_EQ(wire::EncodeSceneRequest(request)[6], 1);
    EXPECT_EQ(wire::EncodeRenderResult(result)[6], 3);
    EXPECT_EQ(wire::EncodeSnapshot(snapshot)[6], 4);
}

TEST(WireFormat, ReusedBuffersMatchFreshCodec)
{
    // Encoding reuses the caller's buffer: a short frame written over a
    // long one must be byte-equal to a fresh encode.
    SceneRequest long_request = WireRequest();
    long_request.scene = std::string(200, 'L');
    const SceneRequest short_request = WireRequest();
    std::string buffer;
    wire::EncodeSceneRequest(long_request, buffer);
    EXPECT_EQ(buffer, wire::EncodeSceneRequest(long_request));
    wire::EncodeSceneRequest(short_request, buffer);
    EXPECT_EQ(buffer, wire::EncodeSceneRequest(short_request));

    // Decoding overwrites every field of a reused result, including a
    // longer stale scene.
    const RenderResult result = WireResult();
    const std::string frame = wire::EncodeRenderResult(result);
    const RenderResult fresh = wire::DecodeRenderResult(frame);
    RenderResult reused;
    reused.status = RequestStatus::kCompleted;
    reused.scene = std::string(200, 'S');
    reused.tier = 9;
    reused.cost.latency_ms = 99.0;
    reused.cost.codec_ms = 3.0;
    reused.queue_wait_ms = 42.0;
    reused.latency_ms = 43.0;
    reused.batch_elements = 7;
    wire::DecodeRenderResult(frame, reused);
    EXPECT_EQ(reused.status, fresh.status);
    EXPECT_EQ(reused.scene, fresh.scene);
    EXPECT_EQ(reused.tier, fresh.tier);
    EXPECT_EQ(reused.cost, fresh.cost);
    EXPECT_EQ(reused.queue_wait_ms, fresh.queue_wait_ms);
    EXPECT_EQ(reused.latency_ms, fresh.latency_ms);
    EXPECT_EQ(reused.batch_elements, fresh.batch_elements);

    SceneRequest request;
    request.scene = std::string(200, 'S');
    wire::DecodeSceneRequest(wire::EncodeSceneRequest(short_request),
                             request);
    EXPECT_EQ(request.scene, short_request.scene);
    EXPECT_EQ(request.tier, short_request.tier);
    EXPECT_EQ(request.priority, short_request.priority);
    EXPECT_EQ(request.deadline_ms, short_request.deadline_ms);
    EXPECT_EQ(request.arrival_ms, short_request.arrival_ms);
}

TEST(WireFormatDeath, RejectsWrongMagic)
{
    std::string frame = wire::EncodeSceneRequest(WireRequest());
    frame[0] = 'X';
    // The diagnostic prints the magic it read, in hex.
    EXPECT_DEATH(wire::DecodeSceneRequest(frame),
                 "wire: bad magic 0x464e5258");
}

TEST(WireFormatDeath, RejectsVersionSkew)
{
    std::string frame = wire::EncodeSceneRequest(WireRequest());
    frame[4] = static_cast<char>(wire::kVersion + 1);  // version u16 LE
    EXPECT_DEATH(wire::DecodeSceneRequest(frame), "wire");
}

TEST(WireFormatDeath, RejectsWrongMessageType)
{
    const std::string frame = wire::EncodeRenderResult(WireResult());
    EXPECT_DEATH(wire::DecodeSceneRequest(frame), "wire");
}

TEST(WireFormatDeath, RejectsUnknownStatus)
{
    std::string frame = wire::EncodeRenderResult(WireResult());
    frame[wire::kHeaderSize] = 9;  // status u8 leads the payload
    EXPECT_DEATH(wire::DecodeRenderResult(frame), "wire");
}

TEST(WireFormatDeath, RejectsTruncatedFrame)
{
    std::string frame = wire::EncodeSceneRequest(WireRequest());
    frame.resize(frame.size() - 3);
    EXPECT_DEATH(wire::DecodeSceneRequest(frame), "wire");
}

TEST(WireFormatDeath, TruncatedViewDiesInsideLargerBuffer)
{
    // Bounds follow the view, not the buffer behind it: the bytes past
    // the view are there, but the decoder must not read them.
    std::string buffer = wire::EncodeSceneRequest(WireRequest());
    const std::size_t frame_size = buffer.size();
    buffer.append(64, '\0');
    const std::string_view view(buffer.data(), frame_size - 3);
    EXPECT_DEATH(wire::DecodeSceneRequest(view), "wire");
}

TEST(WireFormatDeath, RejectsTrailingBytes)
{
    std::string frame = wire::EncodeSceneRequest(WireRequest());
    frame.push_back('\0');
    EXPECT_DEATH(wire::DecodeSceneRequest(frame), "wire");
}

TEST(WireFormatDeath, RejectsHeaderShorterThanFixedSize)
{
    const std::string frame = "FNRW";
    EXPECT_DEATH(wire::DecodeSceneRequest(frame), "wire");
}

}  // namespace
}  // namespace flexnerfer
