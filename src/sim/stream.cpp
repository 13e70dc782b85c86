#include "sim/stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace moldsched {

namespace {

/// Remaining divisible work below this is rounding noise, not pending load.
constexpr double kWorkEps = 1e-9;

}  // namespace

StreamArrival moldable_arrival(MoldableTask task, double release) {
  StreamArrival arrival;
  arrival.kind = ArrivalKind::Moldable;
  arrival.task = std::move(task);
  arrival.release = release;
  return arrival;
}

StreamArrival rigid_arrival(int procs, double duration, double weight,
                            double release) {
  if (procs < 1) {
    throw std::invalid_argument("rigid_arrival: procs must be >= 1");
  }
  // A rigid job is the degenerate moldable task whose only allowed
  // allotment is `procs`: min_procs == max_procs == procs. Entries below
  // procs are filler (never a legal allotment) but must be positive to
  // satisfy the task invariant.
  StreamArrival arrival;
  arrival.kind = ArrivalKind::Rigid;
  arrival.task = MoldableTask(
      std::vector<double>(static_cast<std::size_t>(procs), duration), weight,
      procs);
  arrival.release = release;
  return arrival;
}

StreamArrival divisible_arrival(double work, double weight, double release) {
  StreamArrival arrival;
  arrival.kind = ArrivalKind::Divisible;
  arrival.load = DivisibleJob{work, weight};
  arrival.release = release;
  return arrival;
}

void StreamDelivery::clear() {
  first_job = 0;
  placements.reset(0);
  completion.clear();
  batch_starts.clear();
  chunks.clear();
  divisible_done.clear();
  divisible_completion.clear();
  final_delivery = false;
  cmax = 0.0;
  weighted_completion_sum = 0.0;
  weighted_flow_sum = 0.0;
  divisible_weighted_completion_sum = 0.0;
  num_batches = 0;
}

void OnlineStream::open(int m,
                        const std::vector<NodeReservation>& reservations) {
  if (m < 1) throw std::invalid_argument("OnlineStream: m < 1");
  for (const auto& r : reservations) {
    if (r.proc < 0 || r.proc >= m || !(r.finish > r.start)) {
      throw std::invalid_argument("OnlineStream: bad reservation");
    }
  }
  m_ = m;
  now_ = 0.0;
  watermark_ = 0.0;
  open_ = true;
  finished_ = false;
  broken_ = false;
  reservations_.assign(reservations.begin(), reservations.end());
  result_.reset(0);
  jobs_live_ = 0;
  next_ = 0;
  divisible_live_ = 0;
  divisible_wcs_ = 0.0;
  speculate_ = false;
  spec_head_ = 0;
  spec_count_ = 0;
  spec_decided_ = 0;
  spec_committed_ = 0;
  spec_rolled_back_ = 0;
}

void OnlineStream::set_speculate(bool on) {
  if (!on && spec_head_ < spec_count_) drop_speculation(spec_head_);
  speculate_ = on;
}

double OnlineStream::divisible_work_pending() const noexcept {
  double total = 0.0;
  for (std::size_t d = 0; d < divisible_live_; ++d) {
    if (divisible_[d].remaining > kWorkEps) total += divisible_[d].remaining;
  }
  return total;
}

void OnlineStream::append_batch_job(const StreamArrival& arrival) {
  if (jobs_live_ < jobs_.size()) {
    jobs_[jobs_live_].task = arrival.task;  // reuses the shell's capacity
    jobs_[jobs_live_].release = arrival.release;
  } else {
    jobs_.push_back(OnlineJob{arrival.task, arrival.release});
  }
  ++jobs_live_;
  // Mirror the arrival in the accumulated result (unassigned until its
  // batch is decided).
  result_.schedule.start.push_back(0.0);
  result_.schedule.duration.push_back(0.0);
  result_.schedule.proc_begin.push_back(0);
  result_.schedule.proc_count.push_back(0);
  result_.completion.push_back(0.0);
  result_.flow.push_back(0.0);
}

void OnlineStream::feed(const StreamArrival* arrivals, std::size_t count,
                        double watermark, const SchedulingPolicy& policy,
                        PolicyWorkspace& policy_ws, StreamDelivery& out) {
  out.clear();
  if (!open_ || finished_) {
    throw std::logic_error("OnlineStream: stream is not open");
  }
  if (broken_) {
    throw std::logic_error("OnlineStream: broken by an earlier error");
  }
  if (!(watermark >= watermark_)) {
    throw std::invalid_argument("OnlineStream: watermark moved backwards");
  }
  // Validate everything before touching any state: a rejected feed must
  // leave the stream exactly as it was.
  double prev = watermark_;
  for (std::size_t i = 0; i < count; ++i) {
    const StreamArrival& a = arrivals[i];
    if (!(a.release >= prev)) {
      throw std::invalid_argument(
          "OnlineStream: arrivals must be fed in release order at or after "
          "the previous watermark");
    }
    if (!(a.release <= watermark)) {
      throw std::invalid_argument(
          "OnlineStream: arrival released after the new watermark");
    }
    prev = a.release;
    if (a.kind == ArrivalKind::Divisible) {
      if (!(a.load.work > 0.0) || !(a.load.weight > 0.0)) {
        throw std::invalid_argument(
            "OnlineStream: divisible work and weight must be positive");
      }
    } else {
      if (a.task.max_procs() < 1) {
        throw std::invalid_argument("OnlineStream: arrival without a task");
      }
      if (a.task.min_procs() > m_) {
        throw std::invalid_argument(
            "OnlineStream: job needs more processors than the machine has");
      }
    }
  }

  // A late arrival that would have joined a staged batch (or fed its
  // divisible fill) rolls the stage back before the arrival lands.
  invalidate_speculation(arrivals, count);

  for (std::size_t i = 0; i < count; ++i) {
    const StreamArrival& a = arrivals[i];
    if (a.kind == ArrivalKind::Divisible) {
      if (divisible_live_ < divisible_.size()) {
        divisible_[divisible_live_] =
            PendingDivisible{a.load.work, a.load.weight, a.release};
      } else {
        divisible_.push_back(
            PendingDivisible{a.load.work, a.load.weight, a.release});
      }
      ++divisible_live_;
    } else {
      append_batch_job(a);
    }
  }
  watermark_ = watermark;
  advance(false, policy, policy_ws, out);
  if (speculate_) speculate_ahead(policy, policy_ws);
}

void OnlineStream::finish(const SchedulingPolicy& policy,
                          PolicyWorkspace& policy_ws, StreamDelivery& out) {
  out.clear();
  out.final_delivery = true;
  if (!open_ || finished_) {
    throw std::logic_error("OnlineStream: stream is not open");
  }
  finished_ = true;
  if (broken_) return;  // close quietly; state is unusable anyway
  watermark_ = std::numeric_limits<double>::infinity();
  advance(true, policy, policy_ws, out);
}

void OnlineStream::advance(bool finishing, const SchedulingPolicy& policy,
                           PolicyWorkspace& policy_ws, StreamDelivery& out) {
  const std::size_t first = next_;
  const std::size_t starts_mark = result_.batch_starts.size();
  try {
    // Commit staged speculative decisions that became final. Finality is
    // the same test the fresh loop applies to its open instant, so a
    // committed record is exactly a batch the fresh loop would decide now
    // — and invalidate_speculation already rolled back any record a new
    // arrival could still change. Records are sequential: once the front
    // one is not final, none behind it is either, and the fresh loop below
    // must not run ahead of what is still staged.
    while (spec_head_ < spec_count_) {
      const SpecRecord& rec = spec_pool_[spec_head_];
      if (!finishing && !(watermark_ > rec.member_open + kReleaseTieEps)) {
        break;
      }
      commit_record(rec, out);
      ++spec_head_;
    }
    if (spec_head_ == spec_count_) {
      spec_head_ = 0;
      spec_count_ = 0;
      while (next_ < jobs_live_) {
        const double open_time = std::max(now_, jobs_[next_].release);
        // The batch is final only once no future arrival can join it:
        // every arrival past the watermark has release >= watermark >
        // open + eps.
        if (!finishing && !(watermark_ > open_time + kReleaseTieEps)) break;
        ws_.batch_jobs.clear();
        while (next_ < jobs_live_ &&
               jobs_[next_].release <= open_time + kReleaseTieEps) {
          ws_.batch_jobs.push_back(static_cast<int>(next_));
          ++next_;
        }
        now_ = open_time;
        online_decide_batch(m_, jobs_.data(), reservations_, policy,
                            policy_ws, ws_, now_, result_);
        const double opened = result_.batch_starts.back();
        fill_batch_divisible(opened, now_ - opened, out);
      }
      if (finishing) drain_divisible(out);
    }
  } catch (...) {
    broken_ = true;
    throw;
  }

  // Copy the newly final range into the delivery.
  out.first_job = static_cast<int>(first);
  const int delivered = static_cast<int>(next_ - first);
  out.placements.reset(delivered);
  for (int e = 0; e < delivered; ++e) {
    const auto job = first + static_cast<std::size_t>(e);
    const auto entry = static_cast<std::size_t>(e);
    out.placements.start[entry] = result_.schedule.start[job];
    out.placements.duration[entry] = result_.schedule.duration[job];
    out.placements.proc_begin[entry] =
        static_cast<int>(out.placements.proc_ids.size());
    out.placements.proc_count[entry] = result_.schedule.proc_count[job];
    const auto begin = static_cast<std::size_t>(result_.schedule.proc_begin[job]);
    const auto n_procs = static_cast<std::size_t>(result_.schedule.proc_count[job]);
    out.placements.proc_ids.insert(
        out.placements.proc_ids.end(),
        result_.schedule.proc_ids.begin() + static_cast<std::ptrdiff_t>(begin),
        result_.schedule.proc_ids.begin() +
            static_cast<std::ptrdiff_t>(begin + n_procs));
  }
  out.completion.assign(
      result_.completion.begin() + static_cast<std::ptrdiff_t>(first),
      result_.completion.begin() + static_cast<std::ptrdiff_t>(next_));
  out.batch_starts.assign(
      result_.batch_starts.begin() + static_cast<std::ptrdiff_t>(starts_mark),
      result_.batch_starts.end());
  out.cmax = result_.cmax;
  out.weighted_completion_sum = result_.weighted_completion_sum;
  out.weighted_flow_sum = result_.weighted_flow_sum;
  out.divisible_weighted_completion_sum = divisible_wcs_;
  out.num_batches = result_.num_batches;
}

void OnlineStream::collect_divisible_candidates(double open_time) {
  div_candidates_.clear();
  div_batch_.clear();
  for (std::size_t d = 0; d < divisible_live_; ++d) {
    const PendingDivisible& job = divisible_[d];
    if (job.remaining > kWorkEps &&
        job.release <= open_time + kReleaseTieEps) {
      div_candidates_.push_back(static_cast<int>(d));
      div_batch_.push_back(DivisibleJob{job.remaining, job.weight});
    }
  }
}

void OnlineStream::settle_fill(double open_time, StreamDelivery& out) {
  div_last_finish_.assign(div_candidates_.size(), 0.0);
  for (const auto& chunk : fill_out_.chunks) {
    const auto candidate = static_cast<std::size_t>(chunk.job);
    out.chunks.push_back(DivisibleChunk{
        div_candidates_[candidate],
        ws_.free_procs[static_cast<std::size_t>(chunk.proc)],
        open_time + chunk.start, chunk.duration});
    div_last_finish_[candidate] =
        std::max(div_last_finish_[candidate], open_time + chunk.finish());
  }
  for (std::size_t i = 0; i < div_candidates_.size(); ++i) {
    PendingDivisible& job =
        divisible_[static_cast<std::size_t>(div_candidates_[i])];
    job.remaining = std::max(0.0, job.remaining - fill_out_.placed_work[i]);
    // Fully placed by this fill — or placed to within rounding noise
    // (the filler's capacity tolerance is tighter than kWorkEps, so a
    // residual below it would otherwise never become a candidate again
    // and the job's completion would never be delivered).
    const bool done_exact = fill_out_.completion[i] > 0.0;
    const bool done_noise = !done_exact && job.remaining <= kWorkEps &&
                            fill_out_.placed_work[i] > 0.0;
    if (done_exact || done_noise) {
      job.remaining = 0.0;
      const double done = done_exact ? open_time + fill_out_.completion[i]
                                     : div_last_finish_[i];
      out.divisible_done.push_back(div_candidates_[i]);
      out.divisible_completion.push_back(done);
      divisible_wcs_ += job.weight * done;
    }
  }
}

void OnlineStream::fill_batch_divisible(double open_time, double horizon,
                                        StreamDelivery& out) {
  if (!(horizon > 0.0)) return;
  collect_divisible_candidates(open_time);
  if (div_candidates_.empty()) return;
  // Holes of the batch-local placements on the batch's free processors:
  // chunks can never collide with a placed task, a reserved node (the
  // fixpoint cleared every free processor for the whole window), or a
  // later batch (which opens at the window's end).
  fill_idle_with_divisible_into(
      ws_.batch, static_cast<int>(ws_.free_procs.size()), div_batch_.data(),
      div_batch_.size(), horizon, fill_ws_, fill_out_);
  settle_fill(open_time, out);
}

void OnlineStream::invalidate_speculation(const StreamArrival* arrivals,
                                          std::size_t count) {
  if (spec_head_ >= spec_count_ || count == 0) return;
  // A batch-job arrival joins a staged batch iff it passes the membership
  // test against the batch's pre-fixpoint open; a divisible arrival feeds
  // its fill iff it passes the candidate test against the settled open.
  // Records are sequential, so the first invalidated one takes every later
  // record (whose clock derives from it) down with it.
  std::size_t keep = spec_count_;
  for (std::size_t i = 0; i < count && keep > spec_head_; ++i) {
    const StreamArrival& a = arrivals[i];
    for (std::size_t r = spec_head_; r < keep; ++r) {
      const SpecRecord& rec = spec_pool_[r];
      const double open = a.kind == ArrivalKind::Divisible ? rec.clock_open
                                                           : rec.member_open;
      if (a.release <= open + kReleaseTieEps) {
        keep = r;
        break;
      }
    }
  }
  if (keep < spec_count_) drop_speculation(keep);
}

void OnlineStream::drop_speculation(std::size_t from) {
  spec_rolled_back_ += static_cast<std::uint64_t>(spec_count_ - from);
  spec_count_ = from;
  if (spec_head_ >= spec_count_) {
    spec_head_ = 0;
    spec_count_ = 0;
  }
}

void OnlineStream::commit_record(const SpecRecord& rec, StreamDelivery& out) {
  // Replay the staged decision through the shared lift — identical
  // arithmetic to deciding the batch fresh at the same clock.
  online_lift_batch(jobs_.data(), rec.batch_jobs.data(),
                    rec.batch_jobs.size(), rec.batch, rec.free_procs,
                    rec.clock_open, result_);
  now_ = rec.clock_after;
  next_ = rec.last_job;
  // Apply the staged divisible fill.
  for (const auto& chunk : rec.chunks) out.chunks.push_back(chunk);
  for (std::size_t i = 0; i < rec.div_ids.size(); ++i) {
    PendingDivisible& job =
        divisible_[static_cast<std::size_t>(rec.div_ids[i])];
    job.remaining = rec.div_remaining_after[i];
    if (rec.div_done[i] != 0) {
      out.divisible_done.push_back(rec.div_ids[i]);
      out.divisible_completion.push_back(rec.div_completion[i]);
      divisible_wcs_ += job.weight * rec.div_completion[i];
    }
  }
  ++spec_committed_;
}

void OnlineStream::speculate_ahead(const SchedulingPolicy& policy,
                                   PolicyWorkspace& policy_ws) {
  std::size_t spec_next =
      spec_head_ < spec_count_ ? spec_pool_[spec_count_ - 1].last_job : next_;
  if (spec_next >= jobs_live_) return;
  // Shadow divisible residue: live remaining overlaid with what staged
  // fills already consumed, so chained speculative batches see the residue
  // their predecessors would leave behind.
  spec_div_remaining_.resize(divisible_live_);
  for (std::size_t d = 0; d < divisible_live_; ++d) {
    spec_div_remaining_[d] = divisible_[d].remaining;
  }
  for (std::size_t r = spec_head_; r < spec_count_; ++r) {
    const SpecRecord& rec = spec_pool_[r];
    for (std::size_t i = 0; i < rec.div_ids.size(); ++i) {
      spec_div_remaining_[static_cast<std::size_t>(rec.div_ids[i])] =
          rec.div_remaining_after[i];
    }
  }
  double clock =
      spec_head_ < spec_count_ ? spec_pool_[spec_count_ - 1].clock_after
                               : now_;
  try {
    while (spec_next < jobs_live_) {
      // Same membership rule as the fresh loop; everything still undecided
      // here failed the finality test, which is exactly the speculative
      // frontier.
      const double member_open = std::max(clock, jobs_[spec_next].release);
      ws_.batch_jobs.clear();
      std::size_t last = spec_next;
      while (last < jobs_live_ &&
             jobs_[last].release <= member_open + kReleaseTieEps) {
        ws_.batch_jobs.push_back(static_cast<int>(last));
        ++last;
      }
      double spec_clock = member_open;
      online_settle_batch(m_, jobs_.data(), reservations_, policy, policy_ws,
                          ws_, spec_clock);
      if (spec_count_ >= spec_pool_.size()) spec_pool_.emplace_back();
      SpecRecord& rec = spec_pool_[spec_count_];
      rec.first_job = spec_next;
      rec.last_job = last;
      rec.member_open = member_open;
      rec.clock_open = spec_clock;
      // clock_after mirrors the fresh path's `now_` after the decision
      // (open plus makespan computed at the settled clock), so horizons
      // and later opens reproduce its floating point exactly.
      rec.clock_after = spec_clock + ws_.batch.cmax();
      rec.batch_jobs.assign(ws_.batch_jobs.begin(), ws_.batch_jobs.end());
      rec.batch.copy_from(ws_.batch);
      rec.free_procs.assign(ws_.free_procs.begin(), ws_.free_procs.end());
      stage_fill(rec);
      ++spec_count_;
      ++spec_decided_;
      clock = rec.clock_after;
      spec_next = last;
    }
  } catch (...) {
    // Speculation is best-effort: a failing decision (job cannot fit, a
    // permanently reserved machine) must surface at the *real* decide —
    // the same feed where the speculate-off stream would throw — not
    // break the stream early. The partial stage up to the failure stays
    // valid and committable.
  }
}

void OnlineStream::stage_fill(SpecRecord& rec) {
  rec.chunks.clear();
  rec.div_ids.clear();
  rec.div_remaining_after.clear();
  rec.div_done.clear();
  rec.div_completion.clear();
  // Same horizon expression as the fresh path (`now_ - opened` with now_
  // already advanced past the batch) — not plain cmax, whose rounding can
  // differ.
  const double horizon = rec.clock_after - rec.clock_open;
  if (!(horizon > 0.0)) return;
  div_candidates_.clear();
  div_batch_.clear();
  for (std::size_t d = 0; d < divisible_live_; ++d) {
    if (spec_div_remaining_[d] > kWorkEps &&
        divisible_[d].release <= rec.clock_open + kReleaseTieEps) {
      div_candidates_.push_back(static_cast<int>(d));
      div_batch_.push_back(
          DivisibleJob{spec_div_remaining_[d], divisible_[d].weight});
    }
  }
  if (div_candidates_.empty()) return;
  fill_idle_with_divisible_into(
      ws_.batch, static_cast<int>(ws_.free_procs.size()), div_batch_.data(),
      div_batch_.size(), horizon, fill_ws_, fill_out_);
  // Stage what settle_fill would apply, with identical arithmetic.
  div_last_finish_.assign(div_candidates_.size(), 0.0);
  for (const auto& chunk : fill_out_.chunks) {
    const auto candidate = static_cast<std::size_t>(chunk.job);
    rec.chunks.push_back(DivisibleChunk{
        div_candidates_[candidate],
        ws_.free_procs[static_cast<std::size_t>(chunk.proc)],
        rec.clock_open + chunk.start, chunk.duration});
    div_last_finish_[candidate] = std::max(
        div_last_finish_[candidate], rec.clock_open + chunk.finish());
  }
  for (std::size_t i = 0; i < div_candidates_.size(); ++i) {
    const auto id = static_cast<std::size_t>(div_candidates_[i]);
    double remaining =
        std::max(0.0, spec_div_remaining_[id] - fill_out_.placed_work[i]);
    const bool done_exact = fill_out_.completion[i] > 0.0;
    const bool done_noise = !done_exact && remaining <= kWorkEps &&
                            fill_out_.placed_work[i] > 0.0;
    double done_at = 0.0;
    if (done_exact || done_noise) {
      remaining = 0.0;
      done_at = done_exact ? rec.clock_open + fill_out_.completion[i]
                           : div_last_finish_[i];
    }
    rec.div_ids.push_back(div_candidates_[i]);
    rec.div_remaining_after.push_back(remaining);
    rec.div_done.push_back((done_exact || done_noise) ? 1 : 0);
    rec.div_completion.push_back(done_at);
    spec_div_remaining_[id] = remaining;
  }
}

void OnlineStream::drain_divisible(StreamDelivery& out) {
  // Leftover divisible work at finish(): pour it into dedicated
  // divisible-only windows after the last batch. Each round serves every
  // job already released at the window's start; a window is sized so its
  // free capacity covers the work it serves, and the same reservation
  // fixpoint as a batch clears its processors.
  const int max_rounds =
      static_cast<int>(divisible_live_) +
      static_cast<int>(reservations_.size()) + 8;
  for (int round = 0; round < max_rounds; ++round) {
    double min_release = std::numeric_limits<double>::infinity();
    bool any = false;
    for (std::size_t d = 0; d < divisible_live_; ++d) {
      if (divisible_[d].remaining > kWorkEps) {
        any = true;
        min_release = std::min(min_release, divisible_[d].release);
      }
    }
    if (!any) return;
    if (min_release > now_ + kReleaseTieEps) now_ = min_release;
    collect_divisible_candidates(now_);
    double total = 0.0;
    for (const auto& job : div_batch_) total += job.work;

    // Reservation fixpoint over the drain window [now_, now_ + L) — the
    // same shared loop a batch decision runs, proposing a divisible-only
    // window instead of a batch makespan: L grows as processors drop out,
    // the blocked set only grows, so it converges exactly like a batch.
    // The window is floored at kWorkEps: on a wide machine a tiny
    // remainder could otherwise produce a window below the filler's 1e-12
    // hole-length cutoff, and a zero-progress round would spin the drain
    // to its round budget instead of finishing.
    online_blocked_procs_into(m_, reservations_, now_, now_, ws_.blocked);
    const double window = reservation_fixpoint(
        m_, reservations_, ws_, now_,
        [&](int avail) {
          return std::max(
              total / static_cast<double>(avail) * (1.0 + 1e-9), kWorkEps);
        },
        "OnlineStream");

    empty_batch_.reset(0);
    fill_idle_with_divisible_into(
        empty_batch_, static_cast<int>(ws_.free_procs.size()),
        div_batch_.data(), div_batch_.size(), window, fill_ws_, fill_out_);
    settle_fill(now_, out);
    // The window is spent: later rounds (jobs released mid-drain) must not
    // overlap its chunks.
    now_ += window;
  }
  throw std::logic_error("OnlineStream: divisible drain failed to converge");
}

}  // namespace moldsched
