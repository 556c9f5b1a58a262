#include "serve/admission.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace flexnerfer {
namespace {

/**
 * Work residues below this scale (model ms, relative to the magnitude
 * of the compared quantity) are floating-point dust from the fluid
 * drain arithmetic: snap them to empty so queue-emptying events
 * resolve in one step. The snap is the same for every caller, so it
 * never costs determinism — only exactness far below the ~2% telemetry
 * resolution (common/stats.h).
 */
constexpr double kWorkDust = 1e-9;

bool
Drained(double threshold, double drained_ms)
{
    return threshold <= drained_ms + kWorkDust * (1.0 + drained_ms);
}

std::vector<double>
QueueWeights(const AdmissionPolicy& policy,
             const std::vector<TierPolicy>& tiers)
{
    // kFifo collapses every tier onto one unit-weight queue; kWeightedFair
    // gives each tier its own queue at its configured weight.
    if (policy.discipline == AdmissionDiscipline::kFifo) {
        return {1.0};
    }
    std::vector<double> weights;
    weights.reserve(tiers.size());
    for (const TierPolicy& tier : tiers) {
        weights.push_back(tier.weight);
    }
    return weights;
}

}  // namespace

std::vector<TierPolicy>
ResolvedTiers(const AdmissionPolicy& policy)
{
    std::vector<TierPolicy> tiers = policy.tiers;
    if (tiers.empty()) {
        // The implicit default tier: weight 1, policy deadline, budget
        // 1, no per-tier depth cap — the legacy single-FIFO behavior.
        tiers.emplace_back();
    }
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        if (tiers[i].name.empty()) {
            tiers[i].name = "tier" + std::to_string(i);
        }
    }
    return tiers;
}

AdmissionController::AdmissionController(const AdmissionPolicy& policy)
    : policy_(policy), tiers_(ResolvedTiers(policy)),
      queue_weights_(QueueWeights(policy, tiers_))
{
    for (const TierPolicy& tier : tiers_) {
        if (!(std::isfinite(tier.weight) && tier.weight > 0.0)) {
            Fatal("admission tier '" + tier.name +
                  "' needs a finite weight > 0");
        }
        if (!(tier.shed_budget >= 0.0 && tier.shed_budget <= 1.0)) {
            Fatal("admission tier '" + tier.name +
                  "' needs a shed_budget in [0, 1]");
        }
    }
    schedule_.queues.resize(queue_weights_.size());
    schedule_.lanes.resize(tiers_.size());
    counters_.tiers.resize(tiers_.size());
}

std::size_t
AdmissionController::QueueOf(std::size_t tier) const
{
    return policy_.discipline == AdmissionDiscipline::kFifo ? 0 : tier;
}

void
AdmissionController::Drain(Schedule& schedule, double now_ms) const
{
    // Advance the fluid device from its last event to now: backlogged
    // queues drain at weight-proportional rates, re-planned at every
    // queue-emptying event, and the WFQ virtual clock advances at
    // 1 / (sum of backlogged weights).
    double t = schedule.last_event_ms;
    while (t < now_ms) {
        double weight_sum = 0.0;
        for (std::size_t q = 0; q < schedule.queues.size(); ++q) {
            if (schedule.queues[q].backlog_ms > 0.0) {
                weight_sum += queue_weights_[q];
            }
        }
        if (weight_sum <= 0.0) break;  // device idle through to now
        double dt = now_ms - t;
        bool emptied_first = false;
        for (std::size_t q = 0; q < schedule.queues.size(); ++q) {
            const FluidQueue& queue = schedule.queues[q];
            if (queue.backlog_ms <= 0.0) continue;
            const double to_empty =
                queue.backlog_ms * weight_sum / queue_weights_[q];
            if (to_empty < dt) {
                dt = to_empty;
                emptied_first = true;
            }
        }
        for (std::size_t q = 0; q < schedule.queues.size(); ++q) {
            FluidQueue& queue = schedule.queues[q];
            if (queue.backlog_ms <= 0.0) continue;
            const double drained =
                dt * queue_weights_[q] / weight_sum;
            queue.backlog_ms -= drained;
            queue.drained_ms += drained;
            if (queue.backlog_ms <= kWorkDust) {
                // Empty exactly: cumulative drained snaps to cumulative
                // enqueued, so every request of the queue retires below.
                queue.backlog_ms = 0.0;
                queue.drained_ms = queue.enqueued_ms;
            }
        }
        schedule.virtual_time += dt / weight_sum;
        if (!emptied_first) break;  // drained clean through to now
        t += dt;
    }
    schedule.last_event_ms = now_ms;

    // Retire requests whose work has fully drained.
    for (std::size_t tier = 0; tier < schedule.lanes.size(); ++tier) {
        const FluidQueue& queue = schedule.queues[QueueOf(tier)];
        std::deque<double>& lane = schedule.lanes[tier].in_service;
        while (!lane.empty() && Drained(lane.front(), queue.drained_ms)) {
            lane.pop_front();
        }
    }
}

double
AdmissionController::FluidDelay(const Schedule& schedule,
                                std::size_t queue,
                                double est_latency_ms,
                                double target_work) const
{
    if (target_work <= 0.0) return 0.0;
    // Forward-simulate the fluid device with the candidate's work
    // appended to its queue, assuming no further arrivals (exact for a
    // lone queue — the FIFO case — optimistic otherwise; file header).
    std::vector<double> backlog(schedule.queues.size());
    for (std::size_t q = 0; q < backlog.size(); ++q) {
        backlog[q] = schedule.queues[q].backlog_ms;
    }
    backlog[queue] += est_latency_ms;

    double elapsed = 0.0;
    double remaining = target_work;  // of `queue`'s work, front included
    while (remaining > 0.0) {
        double weight_sum = 0.0;
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (backlog[q] > 0.0) weight_sum += queue_weights_[q];
        }
        // remaining <= backlog[queue], so `queue` is active and
        // weight_sum >= its weight > 0.
        const double rate = queue_weights_[queue] / weight_sum;
        double dt = remaining / rate;
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (q == queue || backlog[q] <= 0.0) continue;
            dt = std::min(dt,
                          backlog[q] * weight_sum / queue_weights_[q]);
        }
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (backlog[q] <= 0.0) continue;
            backlog[q] -= dt * queue_weights_[q] / weight_sum;
            if (backlog[q] <= kWorkDust) backlog[q] = 0.0;
        }
        remaining -= dt * rate;
        if (remaining <= kWorkDust) remaining = 0.0;
        elapsed += dt;
    }
    return elapsed;
}

AdmissionController::Verdict
AdmissionController::Evaluate(const Schedule& schedule, double arrival_ms,
                              double est_latency_ms, double deadline_ms,
                              std::size_t tier) const
{
    const std::size_t queue_index = QueueOf(tier);
    const FluidQueue& queue = schedule.queues[queue_index];
    const TierPolicy& tier_policy = tiers_[tier];

    Verdict verdict;
    verdict.arrival_ms = arrival_ms;
    verdict.tier = tier;

    std::size_t total_depth = 0;
    for (const TierLane& lane : schedule.lanes) {
        total_depth += lane.in_service.size();
    }
    verdict.queue_depth = total_depth;
    verdict.tier_queue_depth = schedule.lanes[tier].in_service.size();

    // Service start: when the tier's prior backlog has drained;
    // completion: when the request's own work has too. Both priced on
    // the weighted-fair fluid device (FluidDelay).
    const double prior_work = queue.backlog_ms;
    verdict.start_ms =
        arrival_ms +
        FluidDelay(schedule, queue_index, est_latency_ms, prior_work);
    verdict.completion_ms =
        arrival_ms + FluidDelay(schedule, queue_index, est_latency_ms,
                                prior_work + est_latency_ms);
    verdict.wait_ms = verdict.start_ms - arrival_ms;

    // Classic WFQ virtual tags over the system virtual clock.
    verdict.start_tag =
        std::max(schedule.virtual_time, queue.last_finish_tag);
    verdict.finish_tag =
        verdict.start_tag + est_latency_ms / queue_weights_[queue_index];

    if (policy_.max_queue_depth > 0 &&
        total_depth >= policy_.max_queue_depth) {
        verdict.outcome = Outcome::kRejectedQueueFull;
        return verdict;
    }
    if (tier_policy.max_queue_depth > 0 &&
        verdict.tier_queue_depth >= tier_policy.max_queue_depth) {
        verdict.outcome = Outcome::kRejectedQueueFull;
        return verdict;
    }

    // Deadline resolution: the request's own, then the tier default,
    // then the policy default (0 at every level = no deadline).
    if (deadline_ms <= 0.0) deadline_ms = tier_policy.default_deadline_ms;
    if (deadline_ms <= 0.0) deadline_ms = policy_.default_deadline_ms;
    verdict.deadline_ms = deadline_ms;
    if (deadline_ms > 0.0 &&
        verdict.completion_ms > arrival_ms + deadline_ms) {
        verdict.outcome = Outcome::kShedDeadline;
        return verdict;
    }

    verdict.outcome = Outcome::kAccepted;
    return verdict;
}

AdmissionController::Verdict
AdmissionController::Admit(double arrival_ms, double est_latency_ms,
                           double deadline_ms, std::size_t tier)
{
    FLEX_CHECK_MSG(est_latency_ms >= 0.0,
                   "negative latency estimate " << est_latency_ms);
    FLEX_CHECK_MSG(std::isfinite(arrival_ms) && std::isfinite(deadline_ms),
                   "non-finite arrival " << arrival_ms << " or deadline "
                                         << deadline_ms);
    FLEX_CHECK_MSG(tier < tiers_.size(),
                   "tier " << tier << " out of range (policy resolves "
                           << tiers_.size() << " tiers)");
    std::lock_guard<std::mutex> lock(mutex_);

    // Clamp the arrival monotone and advance the fluid device to it.
    // Draining is how completed virtual work retires, so it runs for
    // every outcome — Probe drains a private copy the same way, which
    // is what keeps the two in exact agreement.
    double clamped = std::max(arrival_ms, 0.0);
    if (schedule_.saw_arrival) {
        clamped = std::max(clamped, schedule_.last_arrival_ms);
    }
    Drain(schedule_, clamped);

    const Verdict verdict =
        Evaluate(schedule_, clamped, est_latency_ms, deadline_ms, tier);

    if (!schedule_.saw_arrival) {
        counters_.first_arrival_ms = clamped;
        schedule_.saw_arrival = true;
    }
    schedule_.last_arrival_ms = clamped;

    TierCounters& tier_counters = counters_.tiers[tier];
    ++tier_counters.submitted;
    switch (verdict.outcome) {
      case Outcome::kRejectedQueueFull:
        ++counters_.rejected_queue_full;
        ++tier_counters.rejected_queue_full;
        break;
      case Outcome::kShedDeadline:
        ++counters_.shed_deadline;
        ++tier_counters.shed_deadline;
        break;
      case Outcome::kAccepted: {
        FluidQueue& queue = schedule_.queues[QueueOf(tier)];
        queue.backlog_ms += est_latency_ms;
        queue.enqueued_ms += est_latency_ms;
        queue.last_finish_tag = verdict.finish_tag;
        schedule_.lanes[tier].in_service.push_back(queue.enqueued_ms);
        ++counters_.accepted;
        ++tier_counters.accepted;
        counters_.busy_ms += est_latency_ms;
        tier_counters.busy_ms += est_latency_ms;
        counters_.last_completion_ms = std::max(
            counters_.last_completion_ms, verdict.completion_ms);
        break;
      }
    }
    return verdict;
}

AdmissionController::Verdict
AdmissionController::Probe(double arrival_ms, double est_latency_ms,
                           double deadline_ms, std::size_t tier) const
{
    FLEX_CHECK_MSG(est_latency_ms >= 0.0,
                   "negative latency estimate " << est_latency_ms);
    FLEX_CHECK_MSG(std::isfinite(arrival_ms) && std::isfinite(deadline_ms),
                   "non-finite arrival " << arrival_ms << " or deadline "
                                         << deadline_ms);
    FLEX_CHECK_MSG(tier < tiers_.size(),
                   "tier " << tier << " out of range (policy resolves "
                           << tiers_.size() << " tiers)");
    std::lock_guard<std::mutex> lock(mutex_);
    // Evaluate on a private copy of the schedule: the clamp and the
    // drain happen exactly as Admit would apply them, but nothing is
    // recorded.
    Schedule copy = schedule_;
    double clamped = std::max(arrival_ms, 0.0);
    if (copy.saw_arrival) clamped = std::max(clamped, copy.last_arrival_ms);
    Drain(copy, clamped);
    return Evaluate(copy, clamped, est_latency_ms, deadline_ms, tier);
}

AdmissionController::Counters
AdmissionController::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

}  // namespace flexnerfer
