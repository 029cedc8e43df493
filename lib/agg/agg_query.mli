(** Aggregate conjunctive queries [A = α ∘ τ ∘ Q] (Section 2). *)

type t = {
  alpha : Aggregate.t;
  tau : Value_fn.t;
  query : Aggshap_cq.Cq.t;
}

val make : Aggregate.t -> Value_fn.t -> Aggshap_cq.Cq.t -> t
(** @raise Invalid_argument if τ is localized on a relation that is not an
    atom of the query, or the query is invalid. *)

val answer_values :
  t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Value.t array * Aggshap_arith.Rational.t) list
(** The answers of [Q(D)] paired with their τ-values, in deterministic
    (tuple) order.
    @raise Invalid_argument if τ is not actually localized on [D] — i.e.
    two homomorphisms yield the same answer but different τ-values. *)

val answer_bag : t -> Aggshap_relational.Database.t -> Bag.t
(** The bag [{{τ(t) | t ∈ Q(D)}}]: one τ-value per {e answer} (answers
    form a set; multiplicity in the bag arises from distinct answers
    sharing a τ-value).
    @raise Invalid_argument if τ is not actually localized on [D] — i.e.
    two homomorphisms yield the same answer but different τ-values. *)

val eval : t -> Aggshap_relational.Database.t -> Aggshap_arith.Rational.t
(** [A(D) = α(answer_bag)]; 0 when there are no answers. *)

val eval_via :
  (Aggshap_cq.Cq.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_cq.Eval.subst -> bool) ->
  unit) ->
  t ->
  Aggshap_relational.Database.t ->
  Aggshap_arith.Rational.t
(** {!eval} with the homomorphism enumerator passed in: [eval] is
    [eval_via Aggshap_cq.Eval.visit_homomorphisms]. The differential
    oracle passes the scan evaluator ({!Aggshap_cq.Eval.Legacy}) so
    its reference never probes a secondary index. *)

val tau_of_fact : t -> Aggshap_relational.Fact.t -> Aggshap_arith.Rational.t
(** τ applied to a fact of the localization relation.
    @raise Invalid_argument for facts of other relations. *)

val pp : Format.formatter -> t -> unit
