(** Shared helpers for the dynamic-programming tables.

    Every algorithm instantiated from the paper's generic template
    (Figure 2) manipulates tables of bignum counts indexed by the size [k]
    of the endogenous subset, i.e. arrays [c] with [c.(k)] = number of
    [k]-subsets having some property. This module provides the common
    array plumbing: convolution (for [combine] steps), binomial padding
    (for null players dropped during decomposition), and totals. *)

type counts = Aggshap_arith.Bigint.t array
(** [c.(k)] for [k = 0 .. n]; length is the number of endogenous facts
    plus one. *)

(** {1 Instrumentation}

    Call counters for the convolution layer, surfaced by
    [shapctl solve --stats] and the bench JSON reports. Backed by
    [Atomic.t], so the counts are exact under concurrent domains (see
    {!Aggshap_arith.Bigint.stats}). *)

type stats = {
  convolve : int;  (** pairwise convolutions (including inside folds) *)
  convolve_small : int;  (** convolutions taken by the all-native int tier *)
  convolve_ntt : int;
      (** always [0]: the RNS/NTT tier it counted is gone. Kept only
          because the repository benchmark reads it; it goes when the
          per-solve trace replaces these counters (ROADMAP item 2). *)
  convolve_rat : int;  (** rational convolutions (common-denominator) *)
  tree_folds : int;  (** balanced {!convolve_many} reductions *)
  weighted_sums : int;  (** {!weighted_sum} accumulations *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

val zeros : int -> counts
(** [zeros n] is the all-zero table for [n] endogenous facts. *)

val delta : int -> int -> counts
(** [delta n k0] has a single 1 at index [k0]. *)

val full : int -> counts
(** [full n] has [C(n,k)] at index [k]: the table of the always-true
    property. *)

val add : counts -> counts -> counts
(** Pointwise sum; lengths must agree. *)

val sub : counts -> counts -> counts

val complement : int -> counts -> counts
(** [complement n c] is [full n - c]. *)

val convolve : counts -> counts -> counts
(** [convolve a b] has length [(|a|-1) + (|b|-1) + 1]; entry [k] is
    [Σ_{k1+k2=k} a.(k1) * b.(k2)] — the table of a conjunction over two
    disjoint fact sets. Tiered dispatch (see DESIGN.md §8): an all-zero
    operand returns the all-zero table at once; tables whose entries
    all fit the small-int representation run wholly in the native int
    domain (overflow-checked, aborting to the tier below); everything
    else takes the classic paths — a zero-skipping scatter loop for
    sparse/thin operands, a multiply-accumulate buffer
    ({!Aggshap_arith.Bigint.Acc}) for dense ones. All tiers produce
    bit-identical results. *)

val convolve_many : counts list -> counts
(** Balanced pairwise reduction of [convolve] over the list (neutral
    element [[| 1 |]], the table of the empty fact set). Replaces the
    left-folds the DP modules used across hierarchy blocks and connected
    components: bit-identical results (exact arithmetic, associativity),
    but each input is re-traversed O(log n) times instead of O(n). *)

type fault =
  [ `None
  | `Convolve_off_by_one
  | `Tree_fold_skew
  | `Karatsuba_split
  | `Stale_block
  | `Block_drop
  | `Stale_index
  | `Ddnnf_cache_poison
  | `Kc_budget_leak ]
(** Test-only fault injection for the differential-testing oracle
    ({!Aggshap_check}):
    - [`Convolve_off_by_one] makes {!convolve} corrupt its top entry
      whenever both operands are non-trivial, simulating an off-by-one
      in a DP [combine] step.
    - [`Tree_fold_skew] makes {!convolve_many} swap the top two entries
      of the reduced table whenever the reduction tree has at least
      three leaves, simulating mis-paired siblings.
    - [`Karatsuba_split] injects a wrong-split-point multiplication bug
      into the arithmetic layer itself (see
      {!Aggshap_arith.Bigint.fault}).
    - [`Stale_block] makes the incremental engine
      ({!Aggshap_incr.Session}) skip one cache invalidation per update:
      the first dirty membership game keeps its stale per-fact
      contributions, and the τ-flush of the generic-path batch memo is
      suppressed. The kernels themselves ignore this variant.
    - [`Block_drop] makes the decomposition engine ({!Engine}) demote
      the last root-variable block of every partition with at least two
      blocks to null-player padding, simulating a lost hierarchy block.
      The kernels themselves ignore this variant; it corrupts every
      aggregate's DP at the decomposition layer instead.
    - [`Stale_index] makes database updates keep the parent's built
      secondary indexes instead of adjusting them (see
      {!Aggshap_relational.Database.fault}): an index built before an
      insert/delete/provenance flip keeps answering with the old
      contents, so the planned evaluator and the indexed partition go
      wrong wherever a stale index is probed. The kernels themselves
      ignore this variant.
    - [`Ddnnf_cache_poison] makes the knowledge-compilation tier's
      Shannon-expansion compiler poison its formula-keyed cache: the
      entry stored for a non-trivial decision node swaps the node's
      children (see {!Aggshap_lineage.Ddnnf.fault}), so every compiled
      circuit that hits the poisoned cache is semantically wrong. Only
      the lineage tier is affected; the frontier DPs ignore it.
    - [`Kc_budget_leak] breaks the d-DNNF node-budget abort path (see
      {!Aggshap_lineage.Ddnnf.fault}): past a small node count the
      compiler silently truncates sub-formulas to [False] instead of
      raising [Budget_exceeded], so the compiled circuits under-count
      models and the values drift low. Only the lineage tier is
      affected; the frontier DPs ignore it.

    Every frontier DP funnels through these kernels, so the oracle must
    flag each corruption. Not domain-safe; only toggle around
    sequential ([jobs = 1]) runs. *)

val set_fault : fault -> unit
(** Also keeps [Bigint.fault] in sync for [`Karatsuba_split],
    [Database.fault] for [`Stale_index], and
    [Aggshap_lineage.Ddnnf.fault] for [`Ddnnf_cache_poison] and
    [`Kc_budget_leak]. *)

val current_fault : unit -> fault

val pad : int -> counts -> counts
(** [pad p c] extends the underlying fact set by [p] endogenous null
    players: [result.(k) = Σ_j c.(k-j) * C(p, j)]. *)

val total : counts -> Aggshap_arith.Bigint.t
(** Sum of all entries. *)

val to_rationals : counts -> Aggshap_arith.Rational.t array

val scale_to : Aggshap_arith.Rational.t -> counts -> Aggshap_arith.Rational.t array
(** [scale_to r c] is the rational array [r * c.(k)]. *)

val add_rat : Aggshap_arith.Rational.t array -> Aggshap_arith.Rational.t array -> Aggshap_arith.Rational.t array
val zeros_rat : int -> Aggshap_arith.Rational.t array

val pad_rat : int -> Aggshap_arith.Rational.t array -> Aggshap_arith.Rational.t array
(** Binomial padding of a rational-valued table (e.g. a [sum_k] vector). *)

val convolve_rat :
  Aggshap_arith.Rational.t array ->
  Aggshap_arith.Rational.t array ->
  Aggshap_arith.Rational.t array
(** Common-denominator convolution: both operands are lifted to integer
    arrays over the lcm of their denominators, convolved exactly, and
    normalized once per entry — instead of one gcd per term. *)

val weighted_sum :
  int ->
  (Aggshap_arith.Rational.t * counts) list ->
  Aggshap_arith.Rational.t array
(** [weighted_sum n pairs] is [Σ_i w_i * c_i] as a rational array of
    length [n + 1] (every [c_i] must have length [n + 1]). Accumulates
    in integers over the lcm of the weights' denominators, normalizing
    once per subset size — the [Σ_a τ(a) * counts_a] pattern of the
    Min/Max and Avg sum-k evaluations without the per-entry gcd storm. *)
