(** d-DNNF circuits by component splitting and Shannon expansion, and
    exact weighted model counting over them.

    A circuit is a DAG of decision nodes ⟨v, hi, lo⟩ ≡ (v ∧ hi) ∨ (¬v ∧
    lo) — deterministic (the disjuncts disagree on v) and decomposable
    (v occurs in neither child) — and split nodes, the AND or the OR of
    two or more pairwise variable-disjoint children. Both invariants are
    enforced at construction, so the circuit is a d-DNNF on which
    per-size model counts are one bottom-up pass, and every player's
    Shapley value one more, top-down pass ({!shapley_all}). The compiler
    splits an And/Or formula into its variable-disjoint components
    before it Shannon-expands, so read-once formulas compile to circuits
    of linear size. Nodes are hash-consed per {!manager}; compilation is
    memoized per formula id — the formula-keyed cache made sound by
    {!Formula}'s interning. See DESIGN.md §10. *)

type op = Conj | Disj

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
  | Split of {
      id : int;
      op : op;
      children : node list;  (** ≥ 2, pairwise variable-disjoint, by id *)
      vars : Formula.ISet.t;  (** the union of the children's *)
    }

exception Budget_exceeded
(** Raised (without a backtrace) by {!compile} when the manager's node
    budget would be exceeded by the next allocation. The caller is
    expected to abandon the manager and fall back to the solve
    planner's next tier — the knowledge-compilation analogue of the
    [Int_overflow] abort-and-retry in [Tables.convolve]. The compiler
    honours two faults of {!Aggshap_arith.Fault}:
    [`Ddnnf_cache_poison] (the compile cache answers with child-swapped
    decision nodes and connective-flipped split nodes) and
    [`Kc_budget_leak] (past a small node count sub-formulas are
    truncated to [False] instead of raising). *)

type manager
(** Unique node tables + formula-keyed compile cache + counting memos
    (size polynomials per node, Shapley values per circuit).
    Not domain-safe; formulas must come from the store it was created
    over. *)

val create : ?cache:bool -> ?budget:int -> Formula.store -> manager
(** [cache] (default [true]) enables the formula-keyed compile cache;
    disabling it re-expands shared sub-formulas (exponentially slower,
    semantically identical — a qcheck invariant). [budget] caps the
    number of circuit nodes (decision and split) the manager may ever
    allocate; exceeding it raises {!Budget_exceeded} and bumps the
    [budget_aborts] counter. Only {!compile} allocates on the solve
    path: counting ({!model_counts}, {!shapley_all}) never does. *)

val compile : manager -> Formula.t -> node

val condition : manager -> node -> int -> bool -> node
(** [condition mgr c v b]: the circuit with every decision on [v]
    replaced by its [b]-child; [v] no longer occurs. O(|circuit|), and
    it allocates nodes against the budget: the test reference for
    {!shapley_all}, never called on the solve path. *)

val model_counts :
  manager -> n:int -> node -> Aggshap_arith.Bigint.t array
(** [model_counts mgr ~n c] is [|c_0; …; c_n|] with [c_k] = number of
    size-[k] subsets of an [n]-variable ground set satisfying [c]
    (variables outside the circuit are free — smoothing by binomial
    lift). *)

val shapley_all :
  manager -> n:int -> node -> (int * Aggshap_arith.Rational.t) list
(** [shapley_all mgr ~n c] lists, for every player [p] in [vars c] in
    ascending order, Σ_k k!(n−k−1)!/n! · (C1_k − C0_k): the exact
    Shapley value of [p] in the Boolean game 1\[c\] over [n] players,
    with C1/C0 the per-size model counts of [c] with [p] fixed true /
    false. One top-down pass of path polynomials over the memoized
    bottom-up ones serves every player at once; the result is memoized
    per (circuit, [n]). Players outside [vars c] are null players. *)

val shapley_diff :
  manager -> n:int -> node -> int -> Aggshap_arith.Rational.t
(** [shapley_diff mgr ~n c p] is [p]'s value from {!shapley_all}; [0]
    immediately when [p] is outside the circuit (null player). *)

val node_id : node -> int
(** Unique within the manager; [-1]/[-2] for the constants. *)

val node_vars : node -> Formula.ISet.t
val size : node -> int
val node_count : manager -> int

(** {1 Instrumentation} *)

type stats = {
  nodes : int;  (** decision and split nodes created (after hash-consing) *)
  cache_hits : int;  (** formula-keyed cache hits *)
  cache_misses : int;  (** sub-formulas actually expanded *)
  compiles : int;  (** circuits compiled *)
  wmc_passes : int;  (** one all-player pass per compiled event *)
  budget_aborts : int;  (** compilations aborted at the node budget *)
  compile_s : float;  (** CPU time ([Sys.time]) spent compiling *)
  wmc_s : float;  (** CPU time ([Sys.time]) spent counting *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
