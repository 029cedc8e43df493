(** Compiled join plans: an atom ordering plus one index access path
    per atom, turning {!Eval}'s backtracking join into an index
    nested-loop join over {!Aggshap_relational.Database} secondary
    indexes.

    A plan depends only on the query (binding patterns), not the
    database, and both produce exactly the homomorphism {e set} of the
    scan evaluator ({!Eval.Legacy}) — only the enumeration order
    differs, and every consumer (answer sets, support sets,
    satisfaction, answer-value maps) is order-insensitive. *)

type access =
  | Probe_const of int * Aggshap_relational.Value.t
      (** probe the index at this position with this constant *)
  | Probe_var of int * string
      (** probe the index at this position with the variable's binding *)
  | Scan  (** no usable bound position: scan the relation *)

type step = {
  atom : Cq.atom;
  access : access;
}

type t = {
  query : Cq.t;
  steps : step list;  (** join order: earlier steps bind variables for later ones *)
}

val compile : ?order:int list -> Cq.t -> t
(** Greedy bound-position ordering; [?order] pins an explicit atom
    order (body indices) instead, for adversarial-plan tests.
    @raise Invalid_argument if [order] is not a permutation of the body
    indices. *)

val to_string : t -> string
(** Render as [R:probe[0=x] ⋈ S:scan ⋈ …] for tests and debugging. *)

type stats = { plan_compiles : int }

val stats : unit -> stats
val reset_stats : unit -> unit
