module Value = Aggshap_relational.Value
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database

(* An association list: the queries of this development have a handful
   of variables (two or three for every catalog query), so a linear
   scan over a few cons cells beats a balanced string map in the inner
   loop of the join — and extending a binding is one cons, not a path
   copy. Enumeration order does not depend on this representation. *)
type subst = (string * Value.t) list

let subst_find x sigma =
  let rec go = function
    | [] -> None
    | (y, v) :: rest -> if String.equal x y then Some v else go rest
  in
  go sigma

(* Try to extend [sigma] so that the atom matches the fact. *)
let match_atom (a : Cq.atom) (f : Fact.t) sigma =
  if not (String.equal a.rel f.rel) || Array.length a.terms <> Array.length f.args then None
  else begin
    let n = Array.length a.terms in
    let rec go i sigma =
      if i >= n then Some sigma
      else
        match a.terms.(i) with
        | Cq.Const v ->
          if Value.equal v f.args.(i) then go (i + 1) sigma else None
        | Cq.Var x -> begin
          match subst_find x sigma with
          | Some v -> if Value.equal v f.args.(i) then go (i + 1) sigma else None
          | None -> go (i + 1) ((x, f.args.(i)) :: sigma)
        end
    in
    go 0 sigma
  end

(* The scan evaluator: atoms in body order, each matched against a full
   relation scan. Kept as the differential-testing reference for the
   planned evaluator below ([Legacy]); [k] returns [true] to continue
   and [false] to stop early. *)
let visit_homomorphisms_scan q db k =
  let facts_by_rel =
    List.map (fun (a : Cq.atom) -> (a, Database.relation db a.rel)) q.Cq.body
  in
  let rec go atoms sigma =
    match atoms with
    | [] -> k sigma
    | (a, facts) :: rest ->
      let rec try_facts = function
        | [] -> true
        | f :: more -> begin
          match match_atom a f sigma with
          | Some sigma' -> if go rest sigma' then try_facts more else false
          | None -> try_facts more
        end
      in
      try_facts facts
  in
  ignore (go facts_by_rel [])

(* The planned evaluator: an index nested-loop join. Each step draws
   its candidates from the access path the plan compiled — an index
   probe keyed by a constant or an already-bound variable, or a
   relation scan when the atom has no bound position — and [match_atom]
   verifies the remaining positions. Produces the same homomorphism set
   as the scan evaluator (probes return a superset of the matching
   facts of their relation), in a different enumeration order. *)
let visit_planned (plan : Plan.t) db k =
  let rec go steps sigma =
    match steps with
    | [] -> k sigma
    | ({ Plan.atom; access } : Plan.step) :: rest ->
      let candidates =
        match access with
        | Plan.Probe_const (pos, v) -> Database.probe db ~rel:atom.Cq.rel ~pos v
        | Plan.Probe_var (pos, x) -> begin
          match subst_find x sigma with
          | Some v -> Database.probe db ~rel:atom.Cq.rel ~pos v
          | None -> Database.relation db atom.Cq.rel (* unreachable for well-formed plans *)
        end
        | Plan.Scan -> Database.relation db atom.Cq.rel
      in
      let rec try_facts = function
        | [] -> true
        | f :: more -> begin
          match match_atom atom f sigma with
          | Some sigma' -> if go rest sigma' then try_facts more else false
          | None -> try_facts more
        end
      in
      try_facts candidates
  in
  ignore (go plan.Plan.steps [])

let visit_homomorphisms q db k = visit_planned (Plan.compile q) db k

(* The materializing entry points below are shared by the default
   evaluator and the [Legacy]/[Planned] modules: each takes the visitor
   with the query and database already applied. *)
let homomorphisms_via visit =
  let acc = ref [] in
  visit (fun sigma ->
      acc := sigma :: !acc;
      true);
  List.rev !acc

let homomorphisms q db = homomorphisms_via (visit_homomorphisms q db)

let head_value x sigma =
  match subst_find x sigma with
  | Some v -> v
  | None -> invalid_arg ("Eval.apply_head: unbound head variable " ^ x)

(* Heads of one or two variables (every catalog query) build their
   answer tuple directly, without an intermediate list. *)
let apply_head q sigma =
  match q.Cq.head with
  | [] -> [||]
  | [ x ] -> [| head_value x sigma |]
  | [ x; y ] -> [| head_value x sigma; head_value y sigma |]
  | head -> Array.of_list (List.map (fun x -> head_value x sigma) head)

let atom_image (a : Cq.atom) sigma =
  { Fact.rel = a.rel;
    args =
      Array.map
        (function
          | Cq.Const v -> v
          | Cq.Var x -> (
            match subst_find x sigma with
            | Some v -> v
            | None -> invalid_arg ("Eval.atom_image: unbound variable " ^ x)))
        a.terms }

module TupleSet = Set.Make (struct
  type t = Value.t array

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i >= la then 0
        else
          let c = Value.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
    end
end)

let answers_via q visit =
  let set = ref TupleSet.empty in
  visit (fun sigma ->
      set := TupleSet.add (apply_head q sigma) !set;
      true);
  TupleSet.elements !set

let answers q db = answers_via q (visit_homomorphisms q db)

let is_satisfied_via visit =
  let found = ref false in
  visit (fun _ ->
      found := true;
      false);
  !found

let is_satisfied q db = is_satisfied_via (visit_homomorphisms q db)

module FactSet = Set.Make (Fact)

let support_via (q : Cq.t) visit =
  let set = ref FactSet.empty in
  visit (fun sigma ->
      List.iter (fun a -> set := FactSet.add (atom_image a sigma) !set) q.Cq.body;
      true);
  FactSet.elements !set

let support q db = support_via q (visit_homomorphisms q db)

(* The scan evaluator: one side of the planner equivalence suite and
   the evaluator of the differential oracle's reference game. *)
module Legacy = struct
  let visit_homomorphisms = visit_homomorphisms_scan
  let homomorphisms q db = homomorphisms_via (visit_homomorphisms_scan q db)
  let answers q db = answers_via q (visit_homomorphisms_scan q db)
  let is_satisfied q db = is_satisfied_via (visit_homomorphisms_scan q db)
  let support q db = support_via q (visit_homomorphisms_scan q db)
end

(* The planned evaluator pinned to an explicit plan: the other side,
   exercised with random atom orders. *)
module Planned = struct
  let visit_homomorphisms = visit_planned
  let homomorphisms (plan : Plan.t) db = homomorphisms_via (visit_planned plan db)
  let answers (plan : Plan.t) db = answers_via plan.Plan.query (visit_planned plan db)
  let is_satisfied (plan : Plan.t) db = is_satisfied_via (visit_planned plan db)
  let support (plan : Plan.t) db = support_via plan.Plan.query (visit_planned plan db)
end
