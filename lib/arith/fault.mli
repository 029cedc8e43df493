(** Test-only fault injection for the differential-testing oracle
    ({!Aggshap_check}). One process-wide registry: each layer that can
    be corrupted reads {!current} at its injection point and ignores
    the variants that are not its own.

    - [`Convolve_off_by_one] makes [Tables.convolve] corrupt its top
      entry whenever both operands are non-trivial, simulating an
      off-by-one in a DP [combine] step.
    - [`Tree_fold_skew] makes [Tables.convolve_many] swap the top two
      entries of the reduced table whenever the reduction tree has at
      least three leaves, simulating mis-paired siblings.
    - [`Karatsuba_split] injects a wrong-split-point multiplication bug
      into the arithmetic layer itself: every {!Bigint.mul} and
      {!Bigint.sqr} of two operands both at least [4] gains a spurious
      [+ (|a|/4)*(|b|/4)*4] term — the classic "forgot [- z2] in the
      middle Karatsuba term" bug scaled down to a 2-bit split so
      randomized trials can observe it.
    - [`Stale_block] makes the incremental engine ([Session]) skip one
      cache invalidation per update: the first dirty membership game
      keeps its stale per-fact contributions, and the τ-flush of the
      generic-path batch memo is suppressed.
    - [`Block_drop] makes the decomposition engine ([Engine]) demote
      the last root-variable block of every partition with at least two
      blocks to null-player padding, simulating a lost hierarchy block.
      It corrupts every aggregate's DP at the decomposition layer.
    - [`Stale_index] makes database updates keep the parent's built
      secondary indexes verbatim instead of adjusting them — a
      forgotten invalidation. Segments stay correct; an index built
      before an insert/delete/provenance flip keeps answering with the
      old contents, so the planned evaluator and the indexed partition
      go wrong wherever a stale index is probed.
    - [`Ddnnf_cache_poison] makes the knowledge-compilation tier's
      compiler ([Ddnnf]) poison its formula-keyed cache: the entry
      stored for a non-trivial decision node swaps the node's children,
      and the entry stored for a split node flips its connective
      (AND ↔ OR), so every compiled circuit that hits the poisoned
      cache is semantically wrong. With the cache disabled there is
      nothing to poison.
    - [`Kc_budget_leak] breaks the d-DNNF node-budget abort path: past
      a small node count the compiler silently truncates sub-formulas
      to [False] instead of raising [Budget_exceeded], so the compiled
      circuits under-count models and the values drift low.

    Every frontier DP funnels through these layers, so the oracle must
    flag each corruption. While a fault is armed the engine bypasses
    its process-wide partition cache. Not domain-safe; only arm a fault
    around sequential ([jobs = 1]) runs. *)

type t =
  [ `None
  | `Convolve_off_by_one
  | `Tree_fold_skew
  | `Karatsuba_split
  | `Stale_block
  | `Block_drop
  | `Stale_index
  | `Ddnnf_cache_poison
  | `Kc_budget_leak ]

val current : t ref
(** The armed fault; [`None] (the default) in production. *)
