(** The knowledge-compilation tier: exact Shapley values beyond the
    tractability frontier, via Boolean lineage → d-DNNF → weighted
    model counting (DESIGN.md §10; Deutch et al. 2022, Bienvenu et al.
    2024 in PAPERS.md).

    One extraction pass over the plan-compiled evaluator collects each
    answer's lineage (a positive DNF over the endogenous facts); the
    aggregate is decomposed into a linear combination of Boolean-event
    indicators (sound for Sum, Count, Count-distinct, Min, Max and
    Has-duplicates — see {!supports}); each event compiles once by
    component splitting and Shannon expansion ({!Ddnnf}), and one
    counting pass over each compiled event yields every fact's exact
    Shapley value in it. Exponential only in the treewidth
    of the lineage, not in the number of facts — and exact-rational
    identical to naive enumeration wherever both run. *)

type extraction = {
  players : Aggshap_relational.Fact.t array;
      (** endogenous facts, [Database.endogenous] order *)
  answers : (Aggshap_arith.Rational.t * Formula.t) list;
      (** per answer tuple: τ-value and Boolean lineage *)
  store : Formula.store;
}

val supports : Aggshap_agg.Aggregate.t -> bool
(** Whether the aggregate is a linear combination of Boolean-event
    indicators. [false] for Avg / Median / Quantile — a ratio (or an
    order statistic of a variable-size bag) is not linear in any event
    basis, so the solver falls through to naive enumeration there. *)

val extract :
  Aggshap_agg.Agg_query.t -> Aggshap_relational.Database.t -> extraction
(** Boolean provenance of every answer, through the planned evaluator
    ({!Aggshap_cq.Eval.visit_homomorphisms}).
    @raise Invalid_argument if τ is not localized on the database. *)

val events :
  Aggshap_agg.Aggregate.t ->
  Formula.store ->
  (Aggshap_arith.Rational.t * Formula.t) list ->
  (Aggshap_arith.Rational.t * Formula.t) list
(** The linear decomposition α(bag of present answers) =
    Σ c_j·1\[φ_j\], as (c_j, φ_j) pairs over the extraction's answers.
    @raise Invalid_argument on an unsupported aggregate. *)

val shapley_all :
  ?cache:bool ->
  ?budget:int ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Exact Shapley values of all endogenous facts, in
    [Database.endogenous] order. [cache] (default [true]) toggles the
    compiler's formula-keyed cache — results are identical either way
    (a qcheck invariant). [budget] caps the total d-DNNF node count
    across all compiled events.
    @raise Ddnnf.Budget_exceeded when the budget would be exceeded.
    @raise Invalid_argument on an unsupported aggregate or a
    non-localized τ. *)

val shapley :
  ?cache:bool ->
  ?budget:int ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
(** Single-fact variant. It costs as much as {!shapley_all}: the
    compilation and the one counting pass per event serve every fact
    at once.
    @raise Ddnnf.Budget_exceeded when [budget] would be exceeded.
    @raise Invalid_argument if the fact is not endogenous. *)
