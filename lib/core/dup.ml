module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Decompose = Aggshap_cq.Decompose
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact

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

module QMap = Map.Make (Q)

(* In a connected sq-hierarchical CQ every free variable occurs in every
   atom, so a fact determines the answer tuple it can contribute to. *)
let head_tuple_of_fact q (f : Fact.t) =
  match Cq.find_atom q f.rel with
  | None -> None
  | Some atom ->
    if not (Decompose.matches atom [] f) then None
    else begin
      let position x =
        let found = ref (-1) in
        Array.iteri
          (fun i t -> match t with
             | Cq.Var y when String.equal y x && !found < 0 -> found := i
             | _ -> ())
          atom.Cq.terms;
        if !found < 0 then
          invalid_arg
            (Printf.sprintf
               "Dup: free variable %s missing from atom %s (query not connected \
                sq-hierarchical)"
               x f.rel)
        else !found
      in
      Some (Array.of_list (List.map (fun x -> f.args.(position x)) q.Cq.head))
    end

type memo = {
  self : Tables.counts Memo.t;
  count : Count_dp.memo;
}

let create_memo () = { self = Memo.create (); count = Count_dp.create_memo () }

let memo_stats m =
  Memo.merge_stats (Memo.stats m.self) (Count_dp.memo_stats m.count)

(* Counts of k-subsets with at most one answer. Only rows 0 and 1 are
   read, so the answer-count DP may lump every ℓ ≥ 2 together — the
   saturated rows it reads are exact (see {!Count_dp.answer_counts}). *)
let at_most_one ?memo q db =
  let t = Count_dp.answer_counts ?memo ~cap:2 q db in
  Tables.add (Count_dp.get t 0) (Count_dp.get t 1)

(* Figure 5: NoDup counts for a connected sq-hierarchical CQ containing
   the τ-relation. The bag is duplicate-free iff every τ-value class of
   facts yields at most one answer. The memo key omits τ, so a memo is
   only sound across calls sharing one value function. *)
let connected_dup_counts ?count_memo tau q db =
  let n = Database.endo_size db in
  let aq = Agg_query.make Aggregate.Has_duplicates tau q in
  let answer_values =
    List.fold_left
      (fun acc (t, v) -> TupleMap.add t v acc)
      TupleMap.empty
      (Agg_query.answer_values aq db)
  in
  (* Group facts by the τ-value of the answer they can contribute to. *)
  let classes, padding =
    Database.fold
      (fun f p (classes, padding) ->
        match head_tuple_of_fact q f with
        | Some t when TupleMap.mem t answer_values ->
          let v = TupleMap.find t answer_values in
          let cls = Option.value (QMap.find_opt v classes) ~default:Database.empty in
          (QMap.add v (Database.add ~provenance:p f cls) classes, padding)
        | Some _ | None ->
          (classes, if p = Database.Endogenous then padding + 1 else padding))
      db
      (QMap.empty, 0)
  in
  let nodup =
    Tables.convolve_many
      (QMap.fold
         (fun _ class_db acc -> at_most_one ?memo:count_memo q class_db :: acc)
         classes [])
  in
  let nodup = Tables.pad padding nodup in
  Tables.sub (Tables.full n) nodup

(* The Figure-2 template instantiated with Dup counts. The connected
   case is resolved whole (Figure 5, via [connected_leaf]); only the
   cross-product step of Appendix E.2.3 decomposes, with the τ-relation
   in the connected component [q1]. *)
module Alg = struct
  type table = Tables.counts
  type ctx = { tau : Value_fn.t; count : Count_dp.memo option }

  let memo_prefix _ = ""
  let leaf _ _ _ = None

  let connected_leaf ctx q db =
    Some (connected_dup_counts ?count_memo:ctx.count ctx.tau q db)

  let empty _ _ = invalid_arg "Dup: τ-relation vanished from the query"

  (* Every connected sub-query resolves in [connected_leaf], so the
     engine never reaches the root-partition step for this algebra. *)
  let root_mode = `Any_root
  let root_error = "Dup: query is not sq-hierarchical: "
  let merge _ ~root:_ _ = assert false

  let combine ctx q db comps =
    let rel = ctx.tau.Value_fn.rel in
    match List.find_opt (fun (c, _, _) -> List.mem rel (Cq.relations c)) comps with
    | None -> invalid_arg "Dup: τ-relation must occur in the query"
    | Some ((q1, _, dup1_table) as entry1) ->
      let other_rels =
        List.concat_map
          (fun (c, _, _) -> Cq.relations c)
          (List.filter (fun e -> e != entry1) comps)
      in
      let q2 = Cq.restrict_to_relations q other_rels in
      let db1, _ = Database.restrict_relations (Cq.relations q1) db in
      let db2, _ = Database.restrict_relations other_rels db in
      let n1 = Database.endo_size db1 and n2 = Database.endo_size db2 in
      let t1 = Count_dp.answer_counts ?memo:ctx.count ~cap:2 q1 db1 in
      let t2 = Count_dp.answer_counts ?memo:ctx.count ~cap:2 q2 db2 in
      let nonempty1 = Tables.sub (Tables.full n1) (Count_dp.get t1 0) in
      let many2 =
        Tables.sub (Tables.full n2) (Tables.add (Count_dp.get t2 0) (Count_dp.get t2 1))
      in
      let dup1 = dup1_table () in
      Tables.add
        (Tables.convolve nonempty1 many2)
        (Tables.convolve dup1 (Count_dp.get t2 1))

  let pad _ p t = Tables.pad p t
end

module E = Engine.Make (Alg)

let ctx_of ?memo tau = { Alg.tau; count = Option.map (fun m -> m.count) memo }

let check (a : Agg_query.t) =
  if a.alpha <> Aggregate.Has_duplicates then
    invalid_arg
      ("Dup: aggregate " ^ Aggregate.to_string a.alpha ^ " is not has-duplicates");
  if not (Hierarchy.is_sq_hierarchical a.query) then
    invalid_arg ("Dup: query is not sq-hierarchical: " ^ Cq.to_string a.query)

let sum_k_memo ?memo (a : Agg_query.t) db =
  check a;
  let counts =
    E.eval_top ?memo:(Option.map (fun m -> m.self) memo) (ctx_of ?memo a.tau) a.query db
  in
  Tables.to_rationals counts

let sum_k a db = sum_k_memo a db

let shapley ?memo a db f = Sumk.shapley_of (fun a db -> sum_k_memo ?memo a db) a db f

let batch_worker ?memo a db =
  check a;
  fun f -> shapley ?memo a db f

let shapley_all a db = Sumk.shapley_all_of sum_k a db
