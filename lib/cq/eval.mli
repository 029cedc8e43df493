(** CQ evaluation: homomorphism enumeration over a database.

    Two interchangeable evaluators produce the same homomorphism set:
    the top-level entry points run a compiled {!Plan} as an index
    nested-loop join over the database's secondary indexes; the
    backtracking scan join ({!Legacy}) is kept as the
    differential-testing reference, which callers name explicitly.
    Only the enumeration {e order} differs between them — every
    exported view is a set, a bag sum, or a boolean. The evaluator
    feeds top-level answer materialization, the support computation of
    the dynamic programs, and the exact naive Shapley baseline. *)

type subst
(** A homomorphism: a binding of query variables to database values.
    Opaque; consume it with {!apply_head} and {!atom_image}. *)

val visit_homomorphisms :
  Cq.t -> Aggshap_relational.Database.t -> (subst -> bool) -> unit
(** Enumerate homomorphisms without materializing them; the visitor
    returns [true] to continue and [false] to stop early. Runs
    [Plan.compile q] through {!Planned.visit_homomorphisms}. *)

val homomorphisms : Cq.t -> Aggshap_relational.Database.t -> subst list
(** All homomorphisms from the query to the database. *)

val apply_head : Cq.t -> subst -> Aggshap_relational.Value.t array
(** The answer tuple [h(x̄)] of a homomorphism. *)

val atom_image : Cq.atom -> subst -> Aggshap_relational.Fact.t
(** The fact an atom maps to under a homomorphism. *)

val answers : Cq.t -> Aggshap_relational.Database.t -> Aggshap_relational.Value.t array list
(** [Q(D)]: the {e set} of answer tuples (duplicates removed), in some
    deterministic order. *)

val is_satisfied : Cq.t -> Aggshap_relational.Database.t -> bool
(** Boolean evaluation with early exit. *)

val support : Cq.t -> Aggshap_relational.Database.t -> Aggshap_relational.Fact.t list
(** Facts that participate in at least one homomorphism. Facts outside
    the support are null players of every Shapley game over the query. *)

(** The scan evaluator — body-order atoms, one relation scan each,
    no index. The reference arm of the planner equivalence suite, and
    the evaluator of the differential oracle's naive reference game
    ([Aggshap_check.Oracle]), which must not share index state with
    the system under test. *)
module Legacy : sig
  val visit_homomorphisms :
    Cq.t -> Aggshap_relational.Database.t -> (subst -> bool) -> unit

  val homomorphisms : Cq.t -> Aggshap_relational.Database.t -> subst list
  val answers : Cq.t -> Aggshap_relational.Database.t -> Aggshap_relational.Value.t array list
  val is_satisfied : Cq.t -> Aggshap_relational.Database.t -> bool
  val support : Cq.t -> Aggshap_relational.Database.t -> Aggshap_relational.Fact.t list
end

(** The planned evaluator pinned to an explicit (possibly adversarial)
    plan. *)
module Planned : sig
  val visit_homomorphisms :
    Plan.t -> Aggshap_relational.Database.t -> (subst -> bool) -> unit

  val homomorphisms : Plan.t -> Aggshap_relational.Database.t -> subst list
  val answers : Plan.t -> Aggshap_relational.Database.t -> Aggshap_relational.Value.t array list
  val is_satisfied : Plan.t -> Aggshap_relational.Database.t -> bool
  val support : Plan.t -> Aggshap_relational.Database.t -> Aggshap_relational.Fact.t list
end
