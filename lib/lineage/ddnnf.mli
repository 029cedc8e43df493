(** d-DNNF circuits by Shannon expansion, and exact weighted model
    counting over them.

    A circuit is a DAG of decision nodes ⟨v, hi, lo⟩ ≡ (v ∧ hi) ∨ (¬v ∧
    lo): deterministic (the disjuncts disagree on v) and decomposable
    (v occurs in neither child — enforced at construction), hence a
    d-DNNF on which per-size model counts are one bottom-up pass. Nodes
    are hash-consed per {!manager}; compilation is memoized per formula
    id — the formula-keyed cache made sound by {!Formula}'s interning.
    See DESIGN.md §10. *)

type node =
  | True
  | False
  | Decision of {
      id : int;
      var : int;
      hi : node;
      lo : node;
      vars : Formula.ISet.t;
    }

exception Budget_exceeded
(** Raised (without a backtrace) by {!compile} when the manager's node
    budget would be exceeded by the next allocation. The caller is
    expected to abandon the manager and fall back to the solve
    planner's next tier — the knowledge-compilation analogue of the
    [Int_overflow] abort-and-retry in [Tables.convolve]. The compiler
    honours two faults of {!Aggshap_arith.Fault}:
    [`Ddnnf_cache_poison] (the compile cache answers with child-swapped
    decision nodes) and [`Kc_budget_leak] (past a small node count
    sub-formulas are truncated to [False] instead of raising). *)

type manager
(** Unique node table + formula-keyed compile cache + counting memo.
    Not domain-safe; formulas must come from the store it was created
    over. *)

val create : ?cache:bool -> ?budget:int -> Formula.store -> manager
(** [cache] (default [true]) enables the formula-keyed compile cache;
    disabling it re-expands shared sub-formulas (exponentially slower,
    semantically identical — a qcheck invariant). [budget] caps the
    number of decision nodes the manager may ever allocate; exceeding
    it raises {!Budget_exceeded} and bumps the [budget_aborts]
    counter. *)

val compile : manager -> Formula.t -> node

val condition : manager -> node -> int -> bool -> node
(** [condition mgr c v b]: the circuit with every decision on [v]
    replaced by its [b]-child; [v] no longer occurs. O(|circuit|). *)

val model_counts :
  manager -> n:int -> node -> Aggshap_arith.Bigint.t array
(** [model_counts mgr ~n c] is [|c_0; …; c_n|] with [c_k] = number of
    size-[k] subsets of an [n]-variable ground set satisfying [c]
    (variables outside the circuit are free — smoothing by binomial
    lift). *)

val shapley_diff :
  manager -> n:int -> node -> int -> Aggshap_arith.Rational.t
(** [shapley_diff mgr ~n c p] = Σ_k k!(n−k−1)!/n! · (C1_k − C0_k), the
    exact Shapley value of player [p] in the Boolean game 1\[c\] over
    [n] players; [0] immediately when [p] is outside the circuit (null
    player). *)

val node_id : node -> int
(** Unique within the manager; [-1]/[-2] for the constants. *)

val node_vars : node -> Formula.ISet.t
val size : node -> int
val node_count : manager -> int

(** {1 Instrumentation} *)

type stats = {
  nodes : int;  (** decision nodes created (after hash-consing) *)
  cache_hits : int;  (** formula-keyed cache hits *)
  cache_misses : int;  (** sub-formulas actually expanded *)
  compiles : int;  (** circuits compiled *)
  wmc_passes : int;  (** conditioned counting passes *)
  budget_aborts : int;  (** compilations aborted at the node budget *)
  compile_s : float;  (** time spent compiling *)
  wmc_s : float;  (** time spent counting *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
