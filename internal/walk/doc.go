// Package walk implements the walk processes the paper studies and the
// processes it compares against, together with the cover-time machinery
// that measures them.
//
// The processes:
//
//   - Simple: the simple random walk (SRW), optionally lazy, the
//     baseline for every bound in the paper.
//   - Weighted: a reversible weighted random walk, the class for which
//     Theorem 5 (Radzik's Ω(n log n) lower bound) is stated.
//   - EProcess: the paper's contribution — a walk that crosses an
//     unvisited ("blue") incident edge whenever one exists, choosing
//     among them by an arbitrary pluggable Rule A, and performs a
//     simple-random-walk step on visited ("red") edges otherwise.
//     With the uniform rule this is exactly Orenshtein & Shinkar's
//     Greedy Random Walk.
//   - Choice: Avin & Krishnamachari's random walk with choice RWC(d):
//     sample d neighbours, move to the least-visited.
//   - Rotor: the rotor-router (Propp machine), the deterministic
//     sibling with O(mD) cover time.
//   - OldestFirst / LeastUsedFirst: the locally fair exploration
//     strategies of Cooper, Ilcinkas, Klasing and Kosowski, cited by
//     the paper for their exponential-vs-polynomial contrast.
//
// All processes implement Process: one edge transition per Step call,
// reporting the edge traversed, so that the generic drivers
// (VertexCoverSteps, EdgeCoverSteps, CoverTimes) can measure vertex and
// edge cover times for any of them without knowing their internals.
//
// # Memory discipline
//
// The step loop is the hot path of every experiment, so the engine is
// allocation-free after construction and its state is packed for cache
// density: halves are 8-byte (uint32-field) records, and every visited
// or seen set is a word-packed internal/bits.Set — one bit per edge or
// vertex — so whole-set scans (UnvisitedEdgeIDs) run a word at a time.
// Processes run on their graph's frozen CSR layout (constructors call
// Freeze and cache the flat Halves/Offsets arrays); the E-process keeps
// its per-vertex pending (unvisited) half-edges in a single flat arena
// mirroring the CSR block (see edgeArena for the invariants), and Reset
// refills that arena with one copy and clears bitsets in place — no
// per-vertex allocation, and zero allocation from the second Reset on.
// A blue step deletes both halves of the crossed edge from the arena
// (the chosen half, then its twin at the far endpoint, found by edge
// ID), so pending blocks never hold stale halves and the blue degree is
// a block length. With the Uniform rule, EProcess.Step draws the
// crossed edge directly, skipping the Rule interface dispatch; it is
// draw-for-draw identical to the generic path. Callers that measure many trials reuse the
// cover drivers' seen-bitsets through CoverScratch; the package-level
// VertexCoverSteps/EdgeCoverSteps/Cover remain as one-shot
// conveniences. internal/walk/alloc_test.go pins all of this with
// testing.AllocsPerRun.
//
// # Uniform cover kernel
//
// CoverScratch.UniformCover and UniformVertexCover run a Uniform-rule
// E-process cover in one loop over the scratch's own pending arena,
// without building a process. They inline the generator, defer each
// twin deletion to the arrival that follows the crossing (the block the
// walk reads next anyway) and drop the visited-edge bitset entirely.
// Deferring is exact because nothing touches the arrival block between
// the crossing and the arrival's draw (see UniformCover for the full
// argument). Determinism is non-negotiable and pinned
// by golden_test.go and batch_test.go: the kernel consumes randomness
// draw-for-draw exactly as a fused-Uniform EProcess with the same
// generator, so it changes memory traffic, never results. The sim
// sweep runner's Uniform E-process arms run through it; Batch is a
// thin per-lane loop over the same kernel.
//
// # Randomness
//
// Randomised processes draw bounded ints through the minimal Intner
// interface. Passing a *math/rand.Rand preserves the historical draw
// sequence bit-for-bit (see the golden-trajectory tests); passing a
// concrete internal/rng generator routes every draw through Lemire's
// nearly-divisionless bounded-int method, which is what the simulation
// harness does for production sweeps. Given equal seeds and the same
// source kind, runs are bit-for-bit reproducible.
package walk
