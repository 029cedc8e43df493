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
    bit-identical results. Corrupted under the [`Convolve_off_by_one]
    fault ({!Aggshap_arith.Fault}). *)

val convolve_many : counts list -> counts
(** Balanced pairwise reduction of [convolve] over the list (neutral
    element [[| 1 |]], the table of the empty fact set). Replaces the
    left-folds the DP modules used across hierarchy blocks and connected
    components: bit-identical results (exact arithmetic, associativity),
    but each input is re-traversed O(log n) times instead of O(n).
    Corrupted under the [`Tree_fold_skew] fault. *)

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
