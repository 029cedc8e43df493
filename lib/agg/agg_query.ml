module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Eval = Aggshap_cq.Eval
module Fact = Aggshap_relational.Fact

type t = {
  alpha : Aggregate.t;
  tau : Value_fn.t;
  query : Cq.t;
}

let make alpha tau query =
  (match Cq.validate query with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Agg_query.make: " ^ msg));
  if not (List.mem tau.Value_fn.rel (Cq.relations query)) then
    invalid_arg
      (Printf.sprintf "Agg_query.make: τ is localized on %s, not an atom of %s"
         tau.Value_fn.rel (Cq.to_string query));
  { alpha; tau; query }

module TupleMap = Map.Make (struct
  type t = Aggshap_relational.Value.t array

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i >= la then 0
        else
          let c = Aggshap_relational.Value.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
    end
end)

(* [visit] is the homomorphism enumerator: the planned evaluator for
   every production entry point, the scan evaluator for the
   differential oracle's reference ({!eval_via}). *)
let answer_values_via visit t db =
  let r_atom =
    match Cq.find_atom t.query t.tau.Value_fn.rel with
    | Some a -> a
    | None -> invalid_arg "Agg_query.answer_bag: localization atom missing"
  in
  (* Map each answer tuple to its τ-value; check localization consistency. *)
  let values = ref TupleMap.empty in
  visit t.query db (fun sigma ->
      let answer = Eval.apply_head t.query sigma in
      let r_fact = Eval.atom_image r_atom sigma in
      let v = Value_fn.apply t.tau r_fact.Fact.args in
      values :=
        TupleMap.update answer
          (function
            | None -> Some v
            | Some v' ->
              if Q.equal v v' then Some v'
              else
                invalid_arg
                  "Agg_query: value function is not localized on this database \
                   (one answer, two τ-values)")
          !values;
      true);
  TupleMap.bindings !values

let answer_values t db = answer_values_via Eval.visit_homomorphisms t db

let bag_of values = List.fold_left (fun bag (_, v) -> Bag.add v bag) Bag.empty values
let answer_bag t db = bag_of (answer_values t db)
let eval t db = Aggregate.apply t.alpha (answer_bag t db)
let eval_via visit t db = Aggregate.apply t.alpha (bag_of (answer_values_via visit t db))

let tau_of_fact t (f : Fact.t) =
  if not (String.equal f.rel t.tau.Value_fn.rel) then
    invalid_arg
      (Printf.sprintf "Agg_query.tau_of_fact: fact of %s, τ localized on %s" f.rel
         t.tau.Value_fn.rel);
  Value_fn.apply t.tau f.args

let pp fmt t =
  Format.fprintf fmt "%a ∘ %a ∘ %s" Aggregate.pp t.alpha Value_fn.pp t.tau
    (Cq.to_string t.query)
