#ifndef GIDS_SERVING_SLO_SCHEDULER_H_
#define GIDS_SERVING_SLO_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "obs/ledger.h"
#include "obs/time_series.h"
#include "serving/request.h"

namespace gids::serving {

/// Orders formed batches for execution by per-request deadline, informed
/// by rolling service-time quantiles read from a PR-6 `obs::TimeSeries`.
///
/// Policy: feasibility-aware earliest-deadline-first. A batch is feasible
/// when its earliest member deadline can still be met if service starts
/// now and takes the rolling p50 service estimate; infeasible batches
/// (already doomed at the median) are deprioritized behind every feasible
/// one, so a hopeless straggler cannot drag fresh requests past their own
/// deadlines — the goodput-maximizing refinement of plain EDF. Within
/// each class the order is (earliest deadline, close time, batch id), a
/// total order, so scheduling is deterministic.
///
/// The scheduler owns the service-time timeline: the server records one
/// sample per executed batch (`RecordService`). The rolling p50/p99 come
/// from a running histogram that every sample is also added to, so an
/// estimate costs one bucket scan instead of a merge of every window; its
/// buckets, count, min and max equal the timeline's merged histogram, so
/// the estimates are the ones the offline timeline report would give.
class SloScheduler {
 public:
  explicit SloScheduler(TimeNs service_window_ns);

  void Enqueue(FormedBatch batch);

  bool empty() const { return backlog_.empty(); }
  size_t backlog() const { return backlog_.size(); }
  size_t max_backlog() const { return max_backlog_; }

  /// Pops the next batch to execute at virtual time `now` under the
  /// feasibility-aware EDF order. Backlog must be non-empty.
  FormedBatch PopNext(TimeNs now);

  /// Folds one executed batch's service time into the rolling estimate
  /// (`end_ns` = completion; completions across lanes may be recorded in
  /// any order — the TimeSeries folds them into their owning windows).
  void RecordService(TimeNs completion_ns, TimeNs service_ns);

  /// Rolling service-time quantiles over every recorded batch; 0 before
  /// the first completion (every batch is then feasible — cold-start
  /// optimism, resolved after one service sample).
  TimeNs EstimateP50() const;
  TimeNs EstimateP99() const;

  const obs::TimeSeries& service_timeline() const { return service_; }

 private:
  static TimeNs EarliestDeadline(const FormedBatch& b);

  std::vector<FormedBatch> backlog_;
  size_t max_backlog_ = 0;
  obs::TimeSeries service_;
  Histogram service_hist_;  // every recorded sample, for the estimates
};

}  // namespace gids::serving

#endif  // GIDS_SERVING_SLO_SCHEDULER_H_
