module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Decompose = Aggshap_cq.Decompose
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database
module Aggregate = Aggshap_agg.Aggregate
module Agg_query = Aggshap_agg.Agg_query
module Batch = Aggshap_core.Batch
module Boolean_dp = Aggshap_core.Boolean_dp
module Sum_count = Aggshap_core.Sum_count
module Frontier = Aggshap_core.Frontier
module Memo = Aggshap_core.Memo
module Tables = Aggshap_core.Tables

type stats = {
  steps : int;
  games_computed : int;
  games_reused : int;
  full_recomputes : int;
  tables : Memo.stats;
}

let reuse_ratio s =
  let total = s.games_computed + s.games_reused in
  if total = 0 then None else Some (float_of_int s.games_reused /. float_of_int total)

let stats_to_string s =
  let ratio =
    match reuse_ratio s with
    | None -> "n/a"
    | Some r -> Printf.sprintf "%.1f%%" (100.0 *. r)
  in
  Printf.sprintf
    "steps=%d games=%d computed/%d reused (reuse %s) flushes=%d tables=%s" s.steps
    s.games_computed s.games_reused ratio s.full_recomputes
    (Memo.stats_to_string s.tables)

(* One membership game — one answer tuple of the Sum/Count query —
   restricted to the facts matching its atoms. Everything outside that
   set is a null player of the game, so the per-fact contributions
   depend on nothing else and stay valid until an update touches a
   matching fact. Keyed by the canonical grounded-query string. *)
type game_entry = {
  mq : Cq.t;
  mutable dirty : bool;
  mutable contribs : (Fact.t * Q.t) list;
}

type lin = {
  games : (string, game_entry) Hashtbl.t;
  bool_memo : Boolean_dp.memo;
      (* shared across games and steps; its (sub-query, block
         fingerprint) keys never go stale under updates *)
}

type gen = {
  mutable memo : Batch.memo;
  mutable memo_fp : string;
}

type engine =
  | Linear of lin  (* Sum/Count: per-answer games, dirty-set invalidation *)
  | Generic of gen  (* the other families: persistent cross-run batch memo *)

type t = {
  mutable a : Agg_query.t;
  mutable db : Database.t;
  jobs : int;
  engine : engine;
  mutable steps : int;
  mutable games_computed : int;
  mutable games_reused : int;
  mutable full_recomputes : int;
}

let open_ ?(jobs = 1) (a : Agg_query.t) db =
  if not (Frontier.within a.alpha a.query) then
    invalid_arg "Incr.Session: query is outside the tractability frontier";
  let engine =
    match a.alpha with
    | Aggregate.Sum | Aggregate.Count ->
      Linear
        { games = Hashtbl.create 256; bool_memo = Boolean_dp.create_memo () }
    | _ ->
      Generic { memo = Batch.create_memo a; memo_fp = Batch.fingerprint_of a }
  in
  { a; db; jobs = max 1 jobs; engine; steps = 0; games_computed = 0;
    games_reused = 0; full_recomputes = 0 }

let query t = t.a
let database t = t.db

let matches_game mq f =
  List.exists (fun atom -> Decompose.matches atom [] f) mq.Cq.body

(* Mark every game whose atoms can see [f] dirty. Under the
   [`Stale_block] fault, the first matching game (in key order, for
   deterministic replay) keeps its cached contributions — exactly the
   skipped-invalidation bug class the differential oracle must catch. *)
let invalidate lin f =
  let matched = ref [] in
  Hashtbl.iter
    (fun key e -> if (not e.dirty) && matches_game e.mq f then matched := (key, e) :: !matched)
    lin.games;
  let matched = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) !matched in
  let matched =
    match (!Aggshap_arith.Fault.current, matched) with
    | `Stale_block, _ :: rest -> rest
    | _, all -> all
  in
  List.iter (fun (_, e) -> e.dirty <- true) matched

let apply t u =
  t.steps <- t.steps + 1;
  match u with
  | Update.Insert (f, prov) ->
    t.db <- Database.add ~provenance:prov f t.db;
    (match t.engine with Linear lin -> invalidate lin f | Generic _ -> ())
  | Update.Delete f ->
    if not (Database.mem f t.db) then
      invalid_arg ("Incr.Session: delete of absent fact " ^ Fact.to_string f);
    t.db <- Database.remove f t.db;
    (match t.engine with Linear lin -> invalidate lin f | Generic _ -> ())
  | Update.Set_tau (vf, _) ->
    let a = Agg_query.make t.a.Agg_query.alpha vf t.a.Agg_query.query in
    t.a <- a;
    (match t.engine with
     | Linear _ ->
       (* Membership games do not depend on τ: only the per-answer
          weights change, and those are re-derived on every read. *)
       ()
     | Generic g ->
       (* τ is outside the DP-table cache key, so a τ change must flush
          the memo — except under the [`Stale_block] fault, which skips
          the flush (the fingerprint guard in Batch then refuses the
          stale memo). *)
       let fp = Batch.fingerprint_of a in
       if fp <> g.memo_fp && !Aggshap_arith.Fault.current <> `Stale_block then begin
         g.memo <- Batch.create_memo a;
         g.memo_fp <- fp;
         t.full_recomputes <- t.full_recomputes + 1
       end)

(* The game restricted to its matching facts: identical Shapley values
   (a fact outside every atom is a null player, and null players change
   nobody's value), at the cost of the block it lives in instead of the
   whole database. *)
let compute_game t lin mq =
  let relevant, _pad = Decompose.relevant_part mq t.db in
  List.map
    (fun f -> (f, Boolean_dp.shapley ~memo:lin.bool_memo mq relevant f))
    (Database.endogenous relevant)

let shapley_all t =
  match t.engine with
  | Generic g -> fst (Batch.shapley_all ~jobs:t.jobs ~memo:g.memo t.a t.db)
  | Linear lin ->
    let games = Sum_count.membership_games t.a t.db in
    let acc : (Fact.t, Q.t) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun (mq, weight) ->
        let key = Cq.to_string mq in
        let entry =
          match Hashtbl.find_opt lin.games key with
          | Some e -> e
          | None ->
            let e = { mq; dirty = true; contribs = [] } in
            Hashtbl.add lin.games key e;
            e
        in
        if entry.dirty then begin
          entry.contribs <- compute_game t lin entry.mq;
          entry.dirty <- false;
          t.games_computed <- t.games_computed + 1
        end
        else t.games_reused <- t.games_reused + 1;
        List.iter
          (fun (f, v) ->
            let prev = Option.value (Hashtbl.find_opt acc f) ~default:Q.zero in
            Hashtbl.replace acc f (Q.add prev (Q.mul weight v)))
          entry.contribs)
      games;
    List.map
      (fun f -> (f, Option.value (Hashtbl.find_opt acc f) ~default:Q.zero))
      (Database.endogenous t.db)

let stats t =
  let tables =
    match t.engine with
    | Linear lin -> Boolean_dp.memo_stats lin.bool_memo
    | Generic g -> Batch.memo_stats g.memo
  in
  { steps = t.steps; games_computed = t.games_computed;
    games_reused = t.games_reused; full_recomputes = t.full_recomputes; tables }
