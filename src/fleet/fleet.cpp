#include "fleet/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/rng.hpp"
#include "pvfs/io_server.hpp"

namespace csar::fleet {

double loss_event_rate(raid::Scheme s, std::uint32_t nservers, double afr,
                       double repair_years) {
  std::uint32_t g = nservers;
  std::uint32_t m = 0;
  switch (s.kind) {
    case raid::SchemeKind::raid0:
      g = nservers;
      m = 0;
      break;
    case raid::SchemeKind::raid1:
      g = 2;
      m = 1;
      break;
    case raid::SchemeKind::raid4:
    case raid::SchemeKind::raid5:
    case raid::SchemeKind::raid5_nolock:
    case raid::SchemeKind::raid5_npc:
    case raid::SchemeKind::hybrid:
      g = nservers;
      m = 1;
      break;
    case raid::SchemeKind::rs:
      g = s.k + s.m;
      m = s.m;
      break;
  }
  // First failure at rate g·λ; each of the m further failures must land on
  // one of the remaining disks inside the repair window.
  double rate = static_cast<double>(g) * afr;
  for (std::uint32_t i = 1; i <= m; ++i) {
    rate *= static_cast<double>(g - i) * afr * repair_years;
  }
  return rate;
}

FleetModel::FleetModel(raid::Rig& rig, const FleetParams& params)
    : rig_(&rig), p_(params) {
  assert(p_.group_size > 0);
  const std::uint32_t n = rig.p.nservers;
  ngroups_ = (n + p_.group_size - 1) / p_.group_size;
  groups_.resize(ngroups_);
  disks_.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t g = group_of_server(s);
    const double batch_age = std::max(
        0.0, p_.group0_age_years - static_cast<double>(g) *
                                       p_.group_age_step_years);
    disks_.push_back(hw::aging_profile(p_.seed, s, batch_age));
    groups_[g].push_back(s);
    if (hw::Disk* d = rig.cluster.node(rig.server(s).node_id()).disk()) {
      d->set_aging(disks_.back());
    }
  }
}

hw::AfrClass FleetModel::class_of_group(std::uint32_t g,
                                        double added_years) const {
  // The class of the worst (highest-AFR) member: conservative when the
  // cohort's age jitter straddles a bathtub boundary.
  hw::AfrClass cls = hw::AfrClass::useful_life;
  double worst = -1.0;
  for (std::uint32_t s : groups_[g]) {
    const double a = disks_[s].afr(added_years);
    if (a > worst) {
      worst = a;
      cls = disks_[s].afr_class(added_years);
    }
  }
  return cls;
}

double FleetModel::afr_of_group(std::uint32_t g, double added_years) const {
  double sum = 0.0;
  for (std::uint32_t s : groups_[g]) sum += disks_[s].afr(added_years);
  return groups_[g].empty() ? 0.0 : sum / static_cast<double>(groups_[g].size());
}

double FleetModel::years_to_class_change(std::uint32_t g,
                                         double added_years) const {
  double best = 1e9;
  for (std::uint32_t s : groups_[g]) {
    best = std::min(best, disks_[s].years_to_next_class(added_years));
  }
  return best;
}

fault::FaultPlan FleetModel::derive_fault_plan(
    sim::Duration horizon, sim::Duration step,
    std::uint32_t ntenant_files) const {
  fault::FaultPlan plan;
  plan.seed = p_.seed ^ 0xFA177B00F5ULL;
  Rng rng(plan.seed);
  const double step_years = sim::to_seconds(step) * p_.years_per_sim_sec;
  for (sim::Time at = step; at <= horizon; at += step) {
    const double added =
        sim::to_seconds(at) * p_.years_per_sim_sec;  // run starts at t=0
    for (std::uint32_t s = 0; s < nservers(); ++s) {
      const double p_evt =
          std::min(0.5, disks_[s].afr(added) * step_years * p_.fault_boost);
      if (!rng.chance(p_evt)) continue;
      if (ntenant_files > 0 && rng.chance(p_.media_fraction)) {
        // Latent sector error under a tenant file's data extent. Open-loop
        // tenants create their files first, so handles run 1..n.
        fault::MediaFault mf;
        mf.at = at;
        mf.server = s;
        mf.file = pvfs::IoServer::data_name(1 + rng.below(ntenant_files));
        mf.off = rng.below(64) * 4096ull;
        mf.len = 4096;
        plan.media.push_back(std::move(mf));
      } else {
        plan.crashes.push_back(
            fault::ServerCrash{at, s, at + p_.crash_outage, false});
      }
    }
    if (p_.group_outage_per_year > 0.0) {
      const double p_grp =
          std::min(0.5, p_.group_outage_per_year * step_years);
      for (std::uint32_t g = 0; g < ngroups_; ++g) {
        if (!rng.chance(p_grp)) continue;
        plan.group_crashes.push_back(fault::GroupCrash{
            at, groups_[g], at + p_.group_outage_duration, false});
      }
    }
  }
  return plan;
}

FleetController::FleetController(raid::Rig& rig,
                                 raid::SchemeMigrator& migrator,
                                 FleetModel& model, FleetParams params)
    : rig_(&rig),
      migrator_(&migrator),
      model_(&model),
      p_(std::move(params)),
      initial_scheme_(rig.p.scheme) {}

void FleetController::register_file(std::uint32_t tenant,
                                    const std::string& name,
                                    const pvfs::OpenFile& f,
                                    std::uint64_t size) {
  TrackedFile t;
  t.name = name;
  t.f = f;
  t.size = size;
  t.tenant = tenant;
  t.group = model_->group_of_base(f.layout.base);
  files_[f.handle] = t;
  migrator_->track(name, f, size);
  rig_->sim.spawn(persist_rgroup(name, static_cast<std::uint8_t>(t.group)),
                  "fleet_rgroup_persist");
}

sim::Task<void> FleetController::persist_rgroup(std::string name,
                                                std::uint8_t rgroup) {
  auto r = co_await rig_->repair_client().set_redundancy(
      std::move(name), pvfs::kSchemeUnset, 0, rgroup);
  if (r.ok()) ++stats_.rgroup_persists;
}

void FleetController::start() {
  if (running_) return;
  running_ = true;
  stopped_ = std::make_shared<bool>(false);
  if (p_.transition_budget_bps > 0.0) {
    if (!bucket_) {
      bucket_ = std::make_unique<sim::TokenBucket>(
          rig_->sim, p_.transition_budget_bps, p_.budget_burst);
    }
    migrator_->set_shared_bucket(bucket_.get());
  }
  rig_->sim.spawn(decision_loop(stopped_), "fleet_decisions");
}

void FleetController::stop() {
  if (!running_) return;
  running_ = false;
  *stopped_ = true;
  // Detach the budget for future migrations; bucket_ itself stays alive
  // (in-flight copy passes still hold the pointer) until destruction.
  migrator_->set_shared_bucket(nullptr);
}

sim::Task<void> FleetController::decision_loop(
    std::shared_ptr<const bool> stopped) {
  // The flag, not a member, is checked after each sleep: the controller
  // may have been stopped and destroyed while this frame slept.
  while (!*stopped) {
    tick();
    co_await rig_->sim.sleep(p_.decision_interval);
  }
}

void FleetController::tick() {
  ++stats_.decision_ticks;
  const double added = model_->added_years(rig_->sim.now());
  struct Pending {
    std::uint64_t handle;
    std::uint32_t group;
    raid::Scheme to;
    bool urgent;
    double deadline;
  };
  std::vector<Pending> pending;
  for (const auto& [h, t] : files_) {
    // Plan against the class the group will be in lead_years from now —
    // proactive, so the copy work lands before the AFR shift does.
    const hw::AfrClass cls =
        model_->class_of_group(t.group, added + p_.lead_years);
    const raid::Scheme desired = scheme_for(cls);
    const raid::Scheme cur = rig_->policy().scheme_of(t.f);
    if (desired == cur) continue;
    const bool urgent =
        failures_tolerated(desired) > failures_tolerated(cur);
    pending.push_back({h, t.group, desired, urgent,
                       model_->years_to_class_change(t.group, added)});
  }
  backlog_ = pending.size();
  stats_.backlog_peak = std::max(stats_.backlog_peak, backlog_);
  // Urgency order: durability upgrades before elective downgrades; among
  // upgrades, the class nearest its change (tightest deadline) first.
  // Handle order breaks ties, keeping the schedule bit-deterministic.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     if (a.urgent != b.urgent) return a.urgent;
                     if (a.urgent && a.deadline != b.deadline) {
                       return a.deadline < b.deadline;
                     }
                     return a.handle < b.handle;
                   });
  for (const Pending& pd : pending) {
    if (migrator_->active() >= p_.max_concurrent) {
      ++stats_.deferred_concurrency;
      continue;
    }
    if (migrator_->request(pd.handle, pd.to)) {
      ++stats_.transitions_requested;
      if (pd.urgent) {
        ++stats_.urgent_requested;
      } else {
        ++stats_.elective_requested;
      }
      log_.push_back({added, pd.group, pd.to});
    }
  }
}

std::vector<SchemePeriod> FleetController::scheme_periods(
    std::uint32_t group, double total_years) const {
  std::vector<SchemePeriod> out;
  raid::Scheme cur = initial_scheme_;
  double begin = 0.0;
  // log_ is appended in decision order, so per-group entries are already
  // time-sorted; identical repeats (one per file of the class) collapse.
  for (const Transition& tr : log_) {
    if (tr.group != group || tr.to == cur) continue;
    if (tr.at_years > begin) out.push_back({begin, tr.at_years, cur});
    cur = tr.to;
    begin = tr.at_years;
  }
  if (total_years > begin) out.push_back({begin, total_years, cur});
  return out;
}

void FleetController::export_metrics(obs::Registry& reg) const {
  const double added = model_->added_years(rig_->sim.now());
  std::uint64_t by_class[3] = {0, 0, 0};
  for (std::uint32_t s = 0; s < model_->nservers(); ++s) {
    ++by_class[static_cast<std::size_t>(model_->disk(s).afr_class(added))];
  }
  reg.gauge("fleet.disks_infancy")
      .set(static_cast<double>(by_class[0]));
  reg.gauge("fleet.disks_useful").set(static_cast<double>(by_class[1]));
  reg.gauge("fleet.disks_wearout").set(static_cast<double>(by_class[2]));
  reg.gauge("fleet.backlog").set(static_cast<double>(backlog_));
  reg.put("fleet.", stats_);
  reg.gauge("fleet.budget_bytes").set(
      static_cast<double>(budget_bytes_taken()));
  const double elapsed = sim::to_seconds(rig_->sim.now());
  if (p_.transition_budget_bps > 0.0 && elapsed > 0.0) {
    reg.gauge("fleet.budget_utilization")
        .set(static_cast<double>(budget_bytes_taken()) /
             (p_.transition_budget_bps * elapsed));
  }
}

double expected_loss_events(const FleetModel& model, std::uint32_t group,
                            const std::vector<SchemePeriod>& periods,
                            double repair_years, double step_years) {
  double total = 0.0;
  for (const SchemePeriod& pd : periods) {
    double t = pd.begin_years;
    while (t < pd.end_years) {
      const double dt = std::min(step_years, pd.end_years - t);
      total += loss_event_rate(pd.scheme, model.nservers(),
                               model.afr_of_group(group, t), repair_years) *
               dt;
      t += dt;
    }
  }
  return total;
}

TextTable fleet_groups_table(const FleetModel& model, double added_years) {
  TextTable t({"group", "servers", "age (y)", "class", "afr %/y",
               "next change (y)"});
  for (std::uint32_t g = 0; g < model.ngroups(); ++g) {
    const auto& members = model.servers_of_group(g);
    double age = 0.0;
    for (std::uint32_t s : members) {
      age += model.disk(s).age_years + added_years;
    }
    if (!members.empty()) age /= static_cast<double>(members.size());
    const double next = model.years_to_class_change(g, added_years);
    t.add_row({"g" + std::to_string(g),
               "s" + std::to_string(members.front()) + "-s" +
                   std::to_string(members.back()),
               TextTable::num(age, 2),
               hw::afr_class_name(model.class_of_group(g, added_years)),
               TextTable::num(100.0 * model.afr_of_group(g, added_years), 2),
               TextTable::num(next, 2)});
  }
  return t;
}

TextTable fleet_stats_table(const FleetController& ctl) {
  const FleetStats& s = ctl.stats();
  TextTable t({"ticks", "transitions", "urgent", "elective", "deferred",
               "backlog", "peak backlog", "rgroup persists", "budget MB"});
  t.add_row({TextTable::num(s.decision_ticks),
             TextTable::num(s.transitions_requested),
             TextTable::num(s.urgent_requested),
             TextTable::num(s.elective_requested),
             TextTable::num(s.deferred_concurrency),
             TextTable::num(ctl.backlog()),
             TextTable::num(s.backlog_peak),
             TextTable::num(s.rgroup_persists),
             TextTable::num(static_cast<double>(ctl.budget_bytes_taken()) /
                                1e6,
                            2)});
  return t;
}

}  // namespace csar::fleet
