// RAII guards for the process-wide runtime knobs (common/knobs.hpp), so
// tests can pin a setting without leaking it into other tests in the same
// binary.
#pragma once

#include <cstdint>
#include <string>

#include "common/knobs.hpp"
#include "threading/topology.hpp"

namespace agtest {

/// Sets one knob for the guard's lifetime and restores the previous value
/// on exit. ScopedKnob(ag::Knob::kSmallMnk, 0) forces every shape down the
/// packed/blocked path; ScopedKnob(ag::Knob::kSpinUs, 0) forces the
/// immediate-block path. Setting a tune-group knob pins it against the
/// autotuner, as any set_knob does.
class ScopedKnob {
 public:
  ScopedKnob(ag::Knob knob, const ag::KnobValue& value)
      : knob_(knob), prev_(ag::knob_text(knob)) {
    ag::set_knob(knob, value);
  }
  ~ScopedKnob() { ag::set_knob(knob_, prev_); }

  ScopedKnob(const ScopedKnob&) = delete;
  ScopedKnob& operator=(const ScopedKnob&) = delete;

 private:
  ag::Knob knob_;
  std::string prev_;  // knob_text, which set_knob parses back exactly
};

/// Pins an emulated topology (ARMGEMM_CPU_CLASSES + ARMGEMM_NUMA_NODES)
/// for the guard's lifetime and rebuilds the Topology snapshot on both
/// edges, so the runtime actually schedules against the emulation.
/// ScopedCpuClasses("2x2.0,2x1.0") is a 2+2 big.LITTLE at 2:1;
/// nodes > 0 additionally splits the cpus into that many NUMA nodes.
class ScopedCpuClasses {
 public:
  explicit ScopedCpuClasses(const std::string& spec, std::int64_t nodes = 0)
      : prev_spec_(ag::cpu_classes_spec()), prev_nodes_(ag::numa_nodes_override()) {
    ag::set_knob(ag::Knob::kCpuClasses, spec);
    ag::set_knob(ag::Knob::kNumaNodes, nodes);
    ag::Topology::refresh();
  }
  ~ScopedCpuClasses() {
    ag::set_knob(ag::Knob::kCpuClasses, prev_spec_);
    ag::set_knob(ag::Knob::kNumaNodes, prev_nodes_);
    ag::Topology::refresh();
  }

  ScopedCpuClasses(const ScopedCpuClasses&) = delete;
  ScopedCpuClasses& operator=(const ScopedCpuClasses&) = delete;

 private:
  std::string prev_spec_;
  std::int64_t prev_nodes_;
};

}  // namespace agtest
