// Offline sequential-consistency checking over recorded action lists, in
// the style of CDSChecker/scfence.
//
// Given a Recording, the checker materializes the execution's
// happens-before relation as the union of four edge families:
//
//   po — sequenced-before: consecutive actions of the same thread;
//   rf — reads-from: the write of version v on a location precedes every
//        read that observed version v;
//   mo — modification order: version v precedes version v+1;
//   fr — from-read: a read that observed version v precedes the write of
//        version v+1 (it demonstrably executed before that write).
//
// The execution is explainable by a sequentially consistent total order
// iff po ∪ rf ∪ mo ∪ fr is acyclic (Shasha–Snir). A deterministic Kahn
// topological sort (smallest global id first) decides that: it emits
// every action exactly when the relation is acyclic, and its output is
// the SC total order. When it stalls, the actions it could not emit hold
// a cycle; the witness is the first edge a→b, a in id order, whose ends
// share a strongly connected component (iterative Tarjan), closed by a
// BFS path b ⇝ a and printed as human-readable actions.
//
// Coherence is then re-checked by one replay of the total order that
// keeps each location's current value: every load must return it. With
// the op at position k of the order given the interval [2k, 2k+1], the
// order is each location history's only linearization, so the replay
// decides exactly what the Wing–Gong register checker
// (verify/linearizability.hpp) would, in linear time and without
// recursion. On a well-formed acyclic recording rf, fr and mo already
// place every load right after the write it read, so the replay is an
// independent re-check of the order, not a second search.
//
// Scope: this is a *dynamic* analysis of one observed execution, like
// TSAN — it proves this run SC or exhibits this run's violation; it does
// not enumerate the other executions the C++ memory model would allow.
// The deliberately-broken register makes the violation deterministic so
// the negative test does not depend on hardware reordering luck.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/weakmem/recorder.hpp"

namespace bprc::weakmem {

/// Verdict of the offline analysis.
struct SCResult {
  bool sc = false;          ///< po ∪ rf ∪ mo ∪ fr acyclic
  bool coherent = false;    ///< every load of the total order returns its
                            ///< location's latest write (false when !sc)
  bool well_formed = false; ///< version fields internally consistent
  std::string witness;      ///< cycle / violation description when failed

  /// The SC total order (global indices into a flattened action array,
  /// thread-major) when sc holds; empty otherwise.
  std::vector<std::size_t> order;

  bool ok() const { return well_formed && sc && coherent; }
};

/// Runs the full analysis on a recording.
SCResult check_sc(const Recording& rec);

/// Renders one action as "T2#5 W x=3 @v7(release)" for witnesses.
std::string describe_action(const Recording& rec, const MemAction& a);

}  // namespace bprc::weakmem
