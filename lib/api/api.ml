(* The solve/session orchestration layer: everything shapctl used to do
   between argument parsing and printing, as result-typed functions the
   CLI, the server, and the load generator all call. No printing, no
   [exit] — callers decide how to surface errors. *)

module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Parser = Aggshap_cq.Parser
module Hierarchy = Aggshap_cq.Hierarchy
module Fact = Aggshap_relational.Fact
module Schema = Aggshap_relational.Schema
module Database = Aggshap_relational.Database
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Solver = Aggshap_core.Solver
module Strategy = Aggshap_core.Strategy
module Engine = Aggshap_core.Engine
module Json = Aggshap_json.Json
module Session = Aggshap_incr.Session
module Script = Aggshap_incr.Script
module Update = Aggshap_incr.Update

let ( let* ) = Result.bind

(* Invalid_argument is the library's contract-violation channel; at the
   API boundary it becomes an [Error] like any other user mistake. *)
let trap f = try Ok (f ()) with Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_query s =
  match Parser.parse_query s with
  | Ok q -> Ok q
  | Error msg -> Error (Printf.sprintf "cannot parse query %S: %s" s msg)

let parse_database_text contents = Parser.parse_database contents

let load_database path =
  let* contents =
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
    with Sys_error msg -> Error msg
  in
  match Parser.parse_database contents with
  | Ok db -> Ok db
  | Error msg -> Error (Printf.sprintf "cannot parse database %s: %s" path msg)

let parse_fact s =
  match Parser.parse_fact s with
  | Ok (f, prov) -> Ok (f, prov)
  | Error msg -> Error (Printf.sprintf "cannot parse fact %S: %s" s msg)

let parse_pos spec s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok n
  | Some _ | None ->
    Error
      (Printf.sprintf
         "malformed position %S in value function spec %S (expected a non-negative integer)"
         s spec)

let parse_rational what spec s =
  match Q.of_string s with
  | q -> Ok q
  | exception (Invalid_argument _ | Division_by_zero) ->
    Error
      (Printf.sprintf "malformed %s %S in %S (expected an integer or P/Q rational)" what s
         spec)

let parse_tau q spec =
  let check_rel rel =
    if List.mem rel (Cq.relations q) then Ok rel
    else Error (Printf.sprintf "value function relation %s is not an atom of the query" rel)
  in
  match String.split_on_char ':' spec with
  | [ "id"; rel; pos ] ->
    let* rel = check_rel rel in
    let* pos = parse_pos spec pos in
    Ok (Value_fn.id ~rel ~pos)
  | [ "relu"; rel; pos ] ->
    let* rel = check_rel rel in
    let* pos = parse_pos spec pos in
    Ok (Value_fn.relu ~rel ~pos)
  | [ "gt"; rel; pos; bound ] ->
    let* rel = check_rel rel in
    let* pos = parse_pos spec pos in
    let* bound = parse_rational "bound" spec bound in
    Ok (Value_fn.gt ~rel ~pos bound)
  | [ "const"; rel; value ] ->
    let* rel = check_rel rel in
    let* value = parse_rational "value" spec value in
    Ok (Value_fn.const ~rel value)
  | _ -> Error (Printf.sprintf "cannot parse value function spec %S" spec)

let default_tau q =
  match Cq.relations q with
  | rel :: _ -> Ok (Value_fn.const ~rel Q.one)
  | [] -> Error "query has no atoms"

let parse_aggregate s = Aggregate.of_string s

let make_agg_query ~agg ~tau query =
  let* alpha = parse_aggregate agg in
  let* tau =
    match tau with Some s -> parse_tau query s | None -> default_tau query
  in
  trap (fun () -> Agg_query.make alpha tau query)

(* mc:SAMPLES or mc:SAMPLES:SEED. Returns the fallback and the optional
   Monte-Carlo seed. The fallback type itself lives in
   {!Aggshap_core.Strategy} — the planner is its only definition. *)
let parse_fallback s =
  let mc_usage =
    "use auto, naive, knowledge-compilation, fail, or mc:SAMPLES[:SEED]"
  in
  let positive_int what p =
    match int_of_string_opt p with
    | Some n when n > 0 -> Ok n
    | Some _ | None ->
      Error
        (Printf.sprintf "malformed %s %S in fallback %S (expected a positive integer; %s)"
           what p s mc_usage)
  in
  match s with
  | "auto" -> Ok ((`Auto : Strategy.fallback), None)
  | "naive" -> Ok (`Naive, None)
  | "knowledge-compilation" | "kc" -> Ok (`Knowledge_compilation, None)
  | "fail" -> Ok (`Fail, None)
  | _ when String.length s > 3 && String.sub s 0 3 = "mc:" -> begin
    match String.split_on_char ':' (String.sub s 3 (String.length s - 3)) with
    | [ samples ] ->
      let* n = positive_int "sample count" samples in
      Ok (`Monte_carlo n, None)
    | [ samples; seed ] ->
      let* n = positive_int "sample count" samples in
      let* seed =
        match int_of_string_opt seed with
        | Some v -> Ok v
        | None ->
          Error
            (Printf.sprintf "malformed seed %S in fallback %S (expected an integer; %s)"
               seed s mc_usage)
      in
      Ok (`Monte_carlo n, Some seed)
    | _ -> Error (Printf.sprintf "cannot parse fallback %S (%s)" s mc_usage)
  end
  | _ -> Error (Printf.sprintf "unknown fallback %S (%s)" s mc_usage)

(* The wire variant: the SHAPWIRE protocol carries exact rationals
   only, so a Monte-Carlo fallback is rejected here — uniformly for
   [shapctl client] and raw-mode requests. *)
let parse_wire_fallback s =
  let* fb, _seed = parse_fallback s in
  match fb with
  | `Monte_carlo _ ->
    Error
      "solve_query does not take a Monte-Carlo fallback (the wire carries \
       exact rationals only)"
  | (`Auto | `Naive | `Knowledge_compilation | `Fail) as fb ->
    Ok (fb :> Strategy.fallback)

type score = Shapley | Banzhaf

let parse_score = function
  | "shapley" -> Ok Shapley
  | "banzhaf" -> Ok Banzhaf
  | s -> Error (Printf.sprintf "unknown score %S (use shapley or banzhaf)" s)

let schema_warnings q db =
  match Schema.check_database (Cq.induced_schema q) db with
  | Ok () -> []
  | Error msgs -> List.map (fun m -> m ^ " (treated as a null player)") msgs

(* ------------------------------------------------------------------ *)
(* Classify / explain                                                  *)
(* ------------------------------------------------------------------ *)

type classify_row = {
  alpha : Aggregate.t;
  frontier : Hierarchy.cls;
  tractable : bool;
}

let classify q =
  ( Hierarchy.classify q,
    List.map
      (fun alpha ->
        { alpha; frontier = Solver.frontier alpha;
          tractable = Solver.within_frontier alpha q })
      Aggregate.all )

type explanation = {
  chain : (string * bool) list;
  cls : Hierarchy.cls;
  frontier : Hierarchy.cls;
  within_frontier : bool;
  algorithm : string;
  plan : Strategy.plan;
}

let explain ?fallback ?db ?kc_node_budget (a : Agg_query.t) =
  let stats = Option.map Strategy.db_stats db in
  let plan = Strategy.plan ?stats ?kc_node_budget ?fallback a in
  let report = Solver.report ?fallback ?stats ?kc_node_budget a in
  let q = a.Agg_query.query in
  { chain =
      [ ("exists-hierarchical", Hierarchy.is_exists_hierarchical q);
        ("all-hierarchical", Hierarchy.is_all_hierarchical q);
        ("q-hierarchical", Hierarchy.is_q_hierarchical q);
        ("sq-hierarchical", Hierarchy.is_sq_hierarchical q) ];
    cls = report.Solver.cls;
    frontier = report.Solver.frontier;
    within_frontier = report.Solver.within_frontier;
    algorithm = report.Solver.algorithm;
    plan }

(* One line per planner candidate, shared by [shapctl explain] and the
   server's explain op. *)
let plan_lines (ex : explanation) = Strategy.render_candidates ex.plan

let plan_to_json (p : Strategy.plan) =
  let opt name to_json = function
    | None -> []
    | Some v -> [ (name, to_json v) ]
  in
  let candidate (c : Strategy.candidate) =
    Json.Obj
      ([ ("strategy", Json.String (Strategy.route_label c.route));
         ("algorithm", Json.String c.algorithm);
         ("applicable", Json.Bool c.applicable) ]
      @ opt "cost" (fun x -> Json.Float x) c.cost
      @ [ ("reason", Json.String c.reason) ])
  in
  let stats (s : Strategy.db_stats) =
    Json.Obj
      [ ("endogenous", Json.Int s.endo);
        ("facts", Json.Int s.facts);
        ("relations", Json.Int s.relations) ]
  in
  Json.Obj
    ([ ("fallback", Json.String (Strategy.fallback_label p.requested));
       ("chosen", Json.String (Strategy.route_label p.chosen));
       ("algorithm", Json.String p.algorithm);
       ( "ladder",
         Json.List
           (List.map (fun r -> Json.String (Strategy.route_label r)) p.ladder)
       );
       ("candidates", Json.List (List.map candidate p.candidates)) ]
    @ opt "kc_node_budget" (fun b -> Json.Int b) p.kc_node_budget
    @ opt "stats" stats p.stats)

let explanation_to_json (a : Agg_query.t) (ex : explanation) =
  Json.Obj
    [ ("query", Json.String (Cq.to_string a.Agg_query.query));
      ("aggregate", Json.String (Aggregate.to_string a.Agg_query.alpha));
      ( "chain",
        Json.List
          (List.map
             (fun (name, holds) ->
               Json.Obj
                 [ ("class", Json.String name); ("holds", Json.Bool holds) ])
             ex.chain) );
      ("class", Json.String (Hierarchy.cls_to_string ex.cls));
      ("frontier", Json.String (Hierarchy.cls_to_string ex.frontier));
      ("within_frontier", Json.Bool ex.within_frontier);
      ("algorithm", Json.String ex.algorithm);
      ("plan", plan_to_json ex.plan) ]

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)
(* ------------------------------------------------------------------ *)

let eval a db = trap (fun () -> Agg_query.eval a db)

type solve_result = {
  values : (Fact.t * Solver.outcome) list;
  report : Solver.report option;  (** [None] for Banzhaf (no report attached) *)
}

let shapley_all ?fallback ?mc_seed ?jobs ?cache ?kc_node_budget a db =
  trap (fun () ->
      let values, report =
        Solver.shapley_all ?fallback ?mc_seed ?jobs ?cache ?kc_node_budget a db
      in
      { values; report = Some report })

let shapley_fact ?fallback ?mc_seed ?kc_node_budget a db fact_s =
  let* f, _prov = parse_fact fact_s in
  trap (fun () ->
      let outcome, report =
        Solver.shapley ?fallback ?mc_seed ?kc_node_budget a db f
      in
      { values = [ (f, outcome) ]; report = Some report })

let banzhaf_all ?fact a db =
  let* facts =
    match fact with
    | None -> Ok (Database.endogenous db)
    | Some s ->
      let* f, _prov = parse_fact s in
      Ok [ f ]
  in
  trap (fun () ->
      { values = List.map (fun f -> (f, Solver.Exact (Solver.banzhaf a db f))) facts;
        report = None })

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* Everything needed to (re)build a session from strings: the form in
   which the server receives an [open] request and in which snapshots
   are written to disk. [tau = None] is the default constant-1 value
   function. *)
type session_spec = {
  query : string;
  db : string;  (** database text, {!Aggshap_cq.Parser.parse_database} syntax *)
  agg : string;
  tau : string option;
  jobs : int option;
}

let check_jobs = function
  | None -> Ok ()
  | Some j when j >= 1 -> Ok ()
  | Some j -> Error (Printf.sprintf "jobs must be at least 1 (got %d)" j)

let open_session (spec : session_spec) =
  let* q = parse_query spec.query in
  let* db = parse_database_text spec.db in
  let* a = make_agg_query ~agg:spec.agg ~tau:spec.tau q in
  let* () = check_jobs spec.jobs in
  trap (fun () -> Session.open_ ?jobs:spec.jobs a db)

(* The current database of [session], rendered back to database text;
   [parse_database_text] inverts it. The snapshot half of the session
   snapshot/restore cycle. *)
let render_database db =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Fact.to_string f);
      (match Database.provenance db f with
       | Some Database.Exogenous -> Buffer.add_string buf " @exo"
       | Some Database.Endogenous | None -> ());
      Buffer.add_char buf '\n')
    (Database.facts db);
  Buffer.contents buf

let parse_script text =
  match Script.parse text with
  | Ok ops -> Ok ops
  | Error msg -> Error ("script " ^ msg)

(* Applies a whole update script; on failure reports the 1-based script
   line of the offending operation. Operations before the failure stay
   applied (the session is a live object). *)
let apply_script session text =
  let* ops = parse_script text in
  let rec go applied = function
    | [] -> Ok applied
    | (line, op) :: rest -> (
      match trap (fun () -> Session.apply session op) with
      | Ok () -> go (applied + 1) rest
      | Error msg -> Error (Printf.sprintf "script line %d: %s" line msg))
  in
  go 0 ops
