// paper_sim: regenerates the paper's Figs. 8-10 the way their harnesses do
// (validation off, flat ml605 NoC), with every output checked.
//
//  * Fig. 8: RADIOSITY/RAYTRACE/VOLREND-like at 32 cores, full scale, no-CC
//    and SWCC. The two checksums of a kernel must agree.
//  * Fig. 9: the MFifo (2 writers, 2 readers, 96 items, 32 B payload,
//    depth 8) on DSM, SWCC and no-CC. Payloads carry (writer, sequence)
//    tags; every reader must receive every element, each writer's elements
//    in order, and all readers the same order. Shape claim: DSM cycles/item
//    below SWCC.
//  * Fig. 10: motion estimation at 8 cores over three block/search configs
//    on SPM, SWCC and no-CC. Checksums agree per config and every block
//    recovers its known motion vector. Shape claim: SPM < SWCC < no-CC.
//
// The inputs are the paper configurations; --seed only permutes the order
// in which the runs execute.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "apps/mfifo.h"
#include "apps/motion_est.h"
#include "apps/radiosity_like.h"
#include "apps/raytrace_like.h"
#include "apps/volrend_like.h"
#include "driver/reference.h"
#include "driver/workload.h"

namespace perfbench {
namespace {

using namespace pmc;
using rt::Target;

const char* const kKernels[3] = {"radiosity", "raytrace", "volrend"};

std::unique_ptr<apps::App> make_kernel(int which, int64_t scale) {
  switch (which) {
    case 0: {
      apps::RadiosityConfig c;
      c.patches = static_cast<int>(768 * scale / 1000);
      c.neighbors = 8;
      c.iterations = 3;
      return std::make_unique<apps::RadiosityLike>(c);
    }
    case 1: {
      apps::RaytraceConfig c;
      c.width = static_cast<int>(64 * scale / 1000);
      c.height = static_cast<int>(64 * scale / 1000);
      c.spheres = 28;
      return std::make_unique<apps::RaytraceLike>(c);
    }
    default: {
      apps::VolrendConfig c;
      c.volume = static_cast<int>(24 * scale / 1000);
      c.image = static_cast<int>(64 * scale / 1000);
      return std::make_unique<apps::VolrendLike>(c);
    }
  }
}

/// Fig. 8 time decomposition total, with idle folded into sync as the
/// paper's bars do.
uint64_t fig8_total(const sim::CoreStats& s) {
  return s.busy + s.stall_ifetch + s.stall_private_read +
         s.stall_shared_read + s.stall_sync_read + s.idle + s.stall_write +
         s.stall_flush;
}

struct FifoOutcome {
  SimRun run;
  std::string delivery_error;  // empty when every check passed
};

/// One Fig. 9 run with tagged payloads and the delivery check.
FifoOutcome run_fifo(Target target, uint32_t items, int readers,
                     int writers, const rt::FaultInjection& faults) {
  constexpr uint32_t kPayload = 32;
  constexpr uint32_t kDepth = 8;
  rt::ProgramOptions o;
  o.target = target;
  o.cores = readers + writers;
  o.machine = sim::MachineConfig::ml605(o.cores);
  o.machine.lm_bytes = 256 * 1024;
  o.machine.max_cycles = UINT64_C(20'000'000'000);
  o.validate = false;
  o.lock_capacity = 256;
  o.faults = faults;
  use_fibers(o);
  const uint32_t per_writer = items / static_cast<uint32_t>(writers);
  FifoOutcome out;
  // Heap-held so fiber bodies reach it through a stable pointer.
  auto got = std::make_unique<std::vector<std::vector<uint32_t>>>(
      static_cast<size_t>(readers));
  std::unique_ptr<rt::Program> prog;
  std::unique_ptr<apps::MFifo> fifo;
  {
    Scope s("sim.build");
    prog = std::make_unique<rt::Program>(o);
    fifo = std::make_unique<apps::MFifo>(*prog, kPayload, kDepth, readers);
  }
  {
    Scope s(std::string("sim.run.") + rt::to_string(target) + "/mfifo");
    out.run.run_s = timed([&] { prog->run([&](rt::Env& env) {
      uint8_t buf[kPayload] = {};
      if (env.id() < writers) {
        for (uint32_t i = 0; i < per_writer; ++i) {
          const uint32_t tag = static_cast<uint32_t>(env.id()) << 16 | i;
          std::memcpy(buf, &tag, sizeof tag);
          fifo->push(env, buf);
          env.compute(40);  // produce the next element
        }
      } else {
        const int me = env.id() - writers;
        for (uint32_t i = 0; i < per_writer * static_cast<uint32_t>(writers);
             ++i) {
          fifo->pop(env, me, buf);
          uint32_t tag;
          std::memcpy(&tag, buf, sizeof tag);
          (*got)[static_cast<size_t>(me)].push_back(tag);
          env.compute(40);  // consume
        }
      }
    }); });
  }
  out.run.stats = prog->stats_sum();
  for (int c = 0; c < o.cores; ++c) {
    out.run.makespan =
        std::max(out.run.makespan, prog->machine()->stats(c).cycles_total);
  }
  prog->machine()->export_metrics(out.run.metrics);
  {
    Scope s("sim.teardown");
    fifo.reset();
    prog.reset();
  }
  // Every reader receives every element; each writer's stream in push
  // order; all readers see the same global order (broadcast FIFO).
  for (int r = 0; r < readers; ++r) {
    const auto& seq = (*got)[static_cast<size_t>(r)];
    std::vector<uint32_t> next(static_cast<size_t>(writers), 0);
    for (const uint32_t tag : seq) {
      const uint32_t w = tag >> 16;
      if (w >= static_cast<uint32_t>(writers) || (tag & 0xffff) != next[w]) {
        out.delivery_error = "reader " + std::to_string(r) +
                             " got an element out of push order";
        return out;
      }
      ++next[w];
    }
    for (int w = 0; w < writers; ++w) {
      if (next[static_cast<size_t>(w)] != per_writer) {
        out.delivery_error = "reader " + std::to_string(r) +
                             " missed elements of writer " + std::to_string(w);
        return out;
      }
    }
    if (seq != (*got)[0]) {
      out.delivery_error =
          "readers 0 and " + std::to_string(r) + " disagree on the order";
      return out;
    }
  }
  return out;
}

class PaperSim final : public Workload {
 public:
  void setup(const Options& opts) override {
    scale_ = opts.small ? 250 : 1000;
    fig8_cores_ = opts.small ? 8 : 32;
    fifo_items_ = opts.small ? 24 : 96;
    // The self-test's faults: SWCC's skipped exit write-back breaks the
    // Fig. 8 and Fig. 10 checksums, motion vectors and Fig. 9 delivery;
    // DSM's skipped transfer breaks Fig. 9 delivery. SPM's skipped copy-back
    // is left out: its motion runs abort the process instead of failing a
    // check.
    faults_ = rt::FaultInjection{};
    if (opts.faults) {
      faults_.enable("swcc_skip_exit_writeback");
      faults_.enable("dsm_skip_transfer");
    }
    motion_.clear();
    for (int v = 0; v < 3; ++v) {
      apps::MotionConfig c;
      c.blocks_x = opts.small ? 2 : 4;
      c.blocks_y = opts.small ? 2 : 4;
      c.block = v == 2 ? 12 : 8;
      c.search = v == 0 ? 4 : 8;
      motion_.push_back(c);
    }
    // The run order is the only thing the seed changes.
    order_.clear();
    for (int i = 0; i < 3 * 2 + 3 + 3 * 3; ++i) order_.push_back(i);
    permute(order_, opts.seed);
  }

  UnitResult run_unit() override {
    UnitResult r;
    obs::MetricsRegistry merged;
    SimRun fig8[3][2];
    FifoOutcome fifo[3];
    SimRun motion[3][3];
    bool motion_vectors_ok[3][3] = {};
    const Target fig8_targets[2] = {Target::kNoCC, Target::kSWCC};
    const Target fifo_targets[3] = {Target::kDSM, Target::kSWCC,
                                    Target::kNoCC};
    const Target motion_targets[3] = {Target::kSPM, Target::kSWCC,
                                      Target::kNoCC};
    for (const int job : order_) {
      if (job < 6) {
        const int k = job / 2;
        const Target t = fig8_targets[job % 2];
        auto app = make_kernel(k, scale_);
        fig8[k][job % 2] = run_app(*app, fig8_options(t), rt::to_string(t));
        add_run_counts(r, fig8[k][job % 2], rt::to_string(t));
        merged.merge(fig8[k][job % 2].metrics);
      } else if (job < 9) {
        const Target t = fifo_targets[job - 6];
        fifo[job - 6] = run_fifo(t, fifo_items_, 2, 2, faults_);
        add_run_counts(r, fifo[job - 6].run, rt::to_string(t));
        merged.merge(fifo[job - 6].run.metrics);
      } else {
        const int v = (job - 9) / 3;
        const Target t = motion_targets[(job - 9) % 3];
        apps::MotionEst app(motion_[static_cast<size_t>(v)]);
        SimRun& run = motion[v][(job - 9) % 3];
        bool& vectors_ok = motion_vectors_ok[v][(job - 9) % 3];
        run = run_app(app, motion_options(t), rt::to_string(t),
                      [&](rt::Program& prog) {
                        const auto found = app.found(prog);
                        const auto& want = app.expected();
                        vectors_ok = found.size() == want.size();
                        for (size_t i = 0; vectors_ok && i < want.size(); ++i) {
                          vectors_ok = found[i].dx == want[i].dx &&
                                       found[i].dy == want[i].dy;
                        }
                      });
        add_run_counts(r, run, rt::to_string(t));
        merged.merge(run.metrics);
      }
    }
    // Fig. 8: checksums, decomposition, and the reference comparison.
    double gain_sum = 0;
    double flush_worst = 0;
    for (int k = 0; k < 3; ++k) {
      const SimRun& nocc = fig8[k][0];
      const SimRun& swcc = fig8[k][1];
      if (nocc.checksum != swcc.checksum) {
        r.fail(std::string("fig8 ") + kKernels[k] +
               ": no-CC and SWCC checksums differ");
      }
      add_decomposition(r, nocc.stats, "nocc");
      add_decomposition(r, swcc.stats, "swcc");
      const double base = static_cast<double>(fig8_total(nocc.stats));
      const double swcc_total = static_cast<double>(fig8_total(swcc.stats));
      const double gain = 100.0 * (1.0 - swcc_total / base);
      const double flush =
          100.0 * static_cast<double>(swcc.stats.stall_flush) / swcc_total;
      r.det[std::string("apps.swcc_gain_pct.") + kKernels[k]] = gain;
      r.det[std::string("apps.flush_pct.") + kKernels[k]] = flush;
      gain_sum += gain;
      flush_worst = std::max(flush_worst, flush);
      if (k == 0) {
        r.det["apps.util_pct.radiosity.nocc"] =
            100.0 * static_cast<double>(nocc.stats.busy) / base;
        r.det["apps.util_pct.radiosity.swcc"] =
            100.0 * static_cast<double>(swcc.stats.busy) / swcc_total;
      }
    }
    r.det["fig8_error_pp"] =
        std::fabs(gain_sum / 3.0 - reference::kFig8MeanImprovementPct);
    r.det["fig8_flush_error_pp"] =
        std::max(0.0, flush_worst - reference::kFig8MaxFlushPct);

    // Fig. 9: delivery and the DSM < SWCC shape claim.
    for (int i = 0; i < 3; ++i) {
      const std::string b = rt::to_string(fifo_targets[i]);
      if (!fifo[i].delivery_error.empty()) {
        r.fail("fig9 " + b + ": " + fifo[i].delivery_error);
      }
      r.det["apps.fifo_cycles_per_item." + b] =
          static_cast<double>(fifo[i].run.makespan / fifo_items_);
    }
    if (!(fifo[0].run.makespan < fifo[1].run.makespan)) {
      r.fail("fig9 shape: DSM cycles/item not below SWCC");
    }

    // Fig. 10: checksums, motion vectors, SPM < SWCC < no-CC.
    for (int v = 0; v < 3; ++v) {
      const apps::MotionConfig& c = motion_[static_cast<size_t>(v)];
      const std::string cfg =
          "b" + std::to_string(c.block) + "s" + std::to_string(c.search);
      for (int i = 0; i < 3; ++i) {
        r.det["apps.motion_makespan." +
              std::string(rt::to_string(motion_targets[i])) + "." + cfg] =
            static_cast<double>(motion[v][i].makespan);
        if (!motion_vectors_ok[v][i]) {
          r.fail("fig10 " + cfg + " " + rt::to_string(motion_targets[i]) +
                 ": a block missed its motion vector");
        }
      }
      if (motion[v][0].checksum != motion[v][1].checksum ||
          motion[v][0].checksum != motion[v][2].checksum) {
        r.fail("fig10 " + cfg + ": checksums differ across back-ends");
      }
      if (!(motion[v][0].makespan < motion[v][1].makespan &&
            motion[v][1].makespan < motion[v][2].makespan)) {
        r.fail("fig10 shape " + cfg + ": not SPM < SWCC < no-CC");
      }
    }
    add_contention(r, merged);
    return r;
  }

 private:
  rt::ProgramOptions fig8_options(Target t) const {
    rt::ProgramOptions o;
    o.target = t;
    o.cores = fig8_cores_;
    o.machine = sim::MachineConfig::ml605(fig8_cores_);
    o.machine.sdram_bytes = 8 * 1024 * 1024;
    o.machine.max_cycles = UINT64_C(40'000'000'000);
    o.validate = false;
    o.lock_capacity = 4096;
    o.faults = faults_;
    return o;
  }

  rt::ProgramOptions motion_options(Target t) const {
    rt::ProgramOptions o;
    o.target = t;
    o.cores = 8;
    o.machine = sim::MachineConfig::ml605(8);
    o.machine.lm_bytes = 128 * 1024;
    o.machine.max_cycles = UINT64_C(40'000'000'000);
    o.validate = false;
    o.lock_capacity = 512;
    o.faults = faults_;
    return o;
  }

  int64_t scale_ = 1000;
  int fig8_cores_ = 32;
  uint32_t fifo_items_ = 96;
  rt::FaultInjection faults_;
  std::vector<apps::MotionConfig> motion_;
  std::vector<int> order_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sim() {
  return std::make_unique<PaperSim>();
}

}  // namespace perfbench
