/**
 * @file
 * Concurrency-contract annotations for cross-thread state (see
 * DESIGN.md §9).
 *
 * The macros expand to nothing for the compiler; they are contract
 * *markers* consumed by `tools/photon_lint`'s lock-set and determinism
 * passes. The vocabulary:
 *
 *  - PHOTON_PHASE_COMMIT  — a serial-only function: the single thread
 *    that owns the simulated machine runs it. Writes to shared state
 *    inside its call closure need no lock.
 *  - PHOTON_SHARED_STATE  — a field or method backing state shared
 *    across CUs/threads (L1I/L1K/L2/DRAM, monitor sinks, dispatcher
 *    bookkeeping). A write to a tagged field outside the commit
 *    closure must hold some lock.
 *  - PHOTON_PHASE_EXEMPT  — internally synchronized (owns a mutex);
 *    callable from any thread. The linter treats it as opaque-safe.
 */

#ifndef PHOTON_SIM_PHASE_ANNOTATIONS_HPP
#define PHOTON_SIM_PHASE_ANNOTATIONS_HPP

#define PHOTON_PHASE_COMMIT
#define PHOTON_SHARED_STATE
#define PHOTON_PHASE_EXEMPT

/*
 * Flow-sensitive vocabulary (PR 8). Where PHOTON_PHASE_EXEMPT is a
 * *trusted* promise ("internally synchronized"), PHOTON_GUARDED_BY
 * upgrades it to a *checked* contract: photon_lint's lock-set pass
 * tracks std::lock_guard / unique_lock / scoped_lock lifetimes through
 * each function's control-flow graph and requires the named mutex to
 * be held on every path to every write of the tagged field (unless the
 * write sits in the serial commit closure).
 *
 *  - PHOTON_GUARDED_BY(m)     — field annotation: writes require mutex
 *    member `m` to be held (must-hold over all CFG paths).
 *  - PHOTON_REQUIRES_LOCK(m)  — function annotation for the
 *    locked-helper idiom (`...Locked()` methods): the body is analyzed
 *    as if `m` were already held, and every call site is checked to
 *    actually hold `m`.
 *  - PHOTON_DET_SINK          — function or field annotation: a
 *    determinism sink (telemetry/report JSON writers, artifact-store
 *    serialization, stat accumulators). The taint pass reports any
 *    value derived from a nondeterministic source (rand/time/
 *    random_device, this_thread::get_id, pointer->integer casts,
 *    unordered-container iteration) that reaches a sink argument or a
 *    sink field, with the full source-to-sink taint chain.
 *  - PHOTON_DET_SOURCE_OK     — function annotation: nondeterministic
 *    sources inside are reviewed-acceptable (e.g. wall-clock probes
 *    whose results never feed simulated state); the taint pass
 *    neither seeds taint inside the body nor treats its return value
 *    as tainted.
 */
#define PHOTON_GUARDED_BY(mutex)
#define PHOTON_REQUIRES_LOCK(mutex)
#define PHOTON_DET_SINK
#define PHOTON_DET_SOURCE_OK

#endif // PHOTON_SIM_PHASE_ANNOTATIONS_HPP
