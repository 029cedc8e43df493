(* shapctl — command-line front end.

   Subcommands:
     classify  classify a CQ into the hierarchy classes and report the
               tractability frontier for every aggregate function
     explain   explain how one aggregate query would be solved: the
               classification chain, the selected algorithm, and the
               engine's decomposition tree
     eval      evaluate an aggregate query on a database file
     solve     compute Shapley values (all endogenous facts, or one)
     session   incremental maintenance: replay an update script through
               a live solver session, printing values after every step
     serve     run the multi-tenant session server on a Unix socket
     client    drive a running server (one request per invocation, or
               a raw newline-delimited JSON stream)
     fuzz      differential-testing oracle: random AggCQ trials
               cross-validated against naive enumeration

   All orchestration lives in Aggshap_api.Api (shared with the server);
   this file is argument parsing and printing.

   The value function is given as COLON-separated spec:
     id:REL:POS | relu:REL:POS | gt:REL:POS:BOUND | const:REL:VALUE *)

module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Aggregate = Aggshap_agg.Aggregate
module Agg_query = Aggshap_agg.Agg_query
module Solver = Aggshap_core.Solver
module Engine = Aggshap_core.Engine
module Monte_carlo = Aggshap_core.Monte_carlo
module Api = Aggshap_api.Api
module Server = Aggshap_server.Server
module Client = Aggshap_server.Client
module Protocol = Aggshap_server.Protocol

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("shapctl: " ^ s); exit 1) fmt

let or_die = function Ok v -> v | Error msg -> die "%s" msg

let parse_query_arg s = or_die (Api.parse_query s)
let read_database path = or_die (Api.load_database path)

let warn_schema q db =
  List.iter
    (fun m -> Printf.eprintf "shapctl: warning: %s\n" m)
    (Api.schema_warnings q db)

let make_agg_query agg_s tau_s query = or_die (Api.make_agg_query ~agg:agg_s ~tau:tau_s query)

let check_jobs = function
  | Some j when j < 1 -> die "--jobs must be at least 1 (got %d)" j
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* classify                                                            *)
(* ------------------------------------------------------------------ *)

let run_classify query_s =
  let q = parse_query_arg query_s in
  let cls, rows = Api.classify q in
  Printf.printf "query: %s\n" (Cq.to_string q);
  Printf.printf "class: %s\n\n" (Hierarchy.cls_to_string cls);
  Printf.printf "%-18s %-22s %s\n" "aggregate" "frontier" "tractable here?";
  List.iter
    (fun { Api.alpha; frontier; tractable } ->
      Printf.printf "%-18s %-22s %s\n"
        (Aggregate.to_string alpha)
        (Hierarchy.cls_to_string frontier)
        (if tractable then "yes (polynomial)" else "no (#P-hard)"))
    rows;
  0

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let check_kc_budget = function
  | Some b when b < 1 -> die "--kc-node-budget must be at least 1 (got %d)" b
  | _ -> ()

let run_explain query_s agg_s tau_s fallback_s db_path kc_node_budget json =
  let q = parse_query_arg query_s in
  let a = make_agg_query agg_s tau_s q in
  let fallback, _mc_seed = or_die (Api.parse_fallback fallback_s) in
  check_kc_budget kc_node_budget;
  (* An optional database feeds the planner's cost model; without one
     the plan still names the route but shows no cost estimates. *)
  let db = Option.map read_database db_path in
  let ex = Api.explain ~fallback ?db ?kc_node_budget a in
  if json then begin
    (* [to_string] is already newline-terminated. *)
    print_string (Aggshap_json.Json.to_string (Api.explanation_to_json a ex));
    0
  end
  else begin
    Printf.printf "query: %s\n" (Cq.to_string q);
    Printf.printf "aggregate: %s\n\n" (Aggregate.to_string a.Agg_query.alpha);
    Printf.printf "hierarchy chain (each class contains the next):\n";
    List.iter
      (fun (name, holds) ->
        Printf.printf "  %-20s %s\n" name (if holds then "yes" else "no"))
      ex.Api.chain;
    Printf.printf "class: %s\n\n" (Hierarchy.cls_to_string ex.Api.cls);
    Printf.printf "frontier of %s: %s\n"
      (Aggregate.to_string a.Agg_query.alpha)
      (Hierarchy.cls_to_string ex.Api.frontier);
    Printf.printf "within frontier: %s\n"
      (if ex.Api.within_frontier then "yes (polynomial)" else "no (#P-hard)");
    Printf.printf "algorithm: %s\n\n" ex.Api.algorithm;
    Printf.printf "solve plan (* = chosen):\n";
    List.iter (fun line -> Printf.printf "  %s\n" line) (Api.plan_lines ex);
    print_newline ();
    Printf.printf "engine decomposition:\n";
    Format.printf "%a@?" Engine.pp_shape (Engine.shape q);
    0
  end

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

let run_eval query_s db_path agg_s tau_s =
  let q = parse_query_arg query_s in
  let db = read_database db_path in
  warn_schema q db;
  let a = make_agg_query agg_s tau_s q in
  let value = or_die (Api.eval a db) in
  Printf.printf "%s = %s (~ %g)\n" agg_s (Q.to_string value) (Q.to_float value);
  0

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

(* --stats: per-kernel counter report after a solve. The counters are
   Atomic.t, so the totals are exact whatever --jobs says. *)
let print_kernel_stats () =
  let bs = Aggshap_arith.Bigint.stats () in
  let ts = Aggshap_core.Tables.stats () in
  let es = Engine.stats () in
  let ds = Aggshap_relational.Database.stats () in
  let ps = Aggshap_cq.Plan.stats () in
  let ks = Aggshap_lineage.Ddnnf.stats () in
  Printf.printf "kernel counters:\n";
  List.iter
    (fun (name, v) -> Printf.printf "  %-18s %d\n" name v)
    [ ("mul_schoolbook", bs.Aggshap_arith.Bigint.mul_schoolbook);
      ("mul_karatsuba", bs.Aggshap_arith.Bigint.mul_karatsuba);
      ("mul_small", bs.Aggshap_arith.Bigint.mul_small);
      ("sqr", bs.Aggshap_arith.Bigint.sqr);
      ("divmod", bs.Aggshap_arith.Bigint.divmod);
      ("gcd", bs.Aggshap_arith.Bigint.gcd);
      ("acc_mul", bs.Aggshap_arith.Bigint.acc_mul);
      ("promotions", bs.Aggshap_arith.Bigint.promotions);
      ("demotions", bs.Aggshap_arith.Bigint.demotions);
      ("convolve", ts.Aggshap_core.Tables.convolve);
      ("convolve_small", ts.Aggshap_core.Tables.convolve_small);
      ("convolve_rat", ts.Aggshap_core.Tables.convolve_rat);
      ("tree_folds", ts.Aggshap_core.Tables.tree_folds);
      ("weighted_sums", ts.Aggshap_core.Tables.weighted_sums);
      ("engine_nodes", es.Engine.nodes);
      ("engine_leaves", es.Engine.leaves);
      ("engine_merges", es.Engine.merges);
      ("engine_combines", es.Engine.combines);
      ("plan_compiles", ps.Aggshap_cq.Plan.plan_compiles);
      ("index_builds", ds.Aggshap_relational.Database.index_builds);
      ("index_probes", ds.Aggshap_relational.Database.index_probes);
      ("rel_scans", ds.Aggshap_relational.Database.rel_scans);
      ("ddnnf_nodes", ks.Aggshap_lineage.Ddnnf.nodes);
      ("ddnnf_cache_hits", ks.Aggshap_lineage.Ddnnf.cache_hits);
      ("ddnnf_cache_misses", ks.Aggshap_lineage.Ddnnf.cache_misses);
      ("ddnnf_compiles", ks.Aggshap_lineage.Ddnnf.compiles);
      ("ddnnf_wmc_passes", ks.Aggshap_lineage.Ddnnf.wmc_passes);
      ("kc_budget_aborts", ks.Aggshap_lineage.Ddnnf.budget_aborts) ];
  if ks.Aggshap_lineage.Ddnnf.compiles > 0 then
    Printf.printf "  %-18s compile %.6fs, wmc %.6fs\n" "ddnnf_time"
      ks.Aggshap_lineage.Ddnnf.compile_s ks.Aggshap_lineage.Ddnnf.wmc_s

let run_solve query_s db_path agg_s tau_s fact_s fallback_s score_s jobs cache
    kc_node_budget stats =
  let q = parse_query_arg query_s in
  let db = read_database db_path in
  warn_schema q db;
  let a = make_agg_query agg_s tau_s q in
  let fallback, mc_seed = or_die (Api.parse_fallback fallback_s) in
  let score = or_die (Api.parse_score score_s) in
  check_jobs jobs;
  check_kc_budget kc_node_budget;
  if stats then begin
    Aggshap_arith.Bigint.reset_stats ();
    Aggshap_core.Tables.reset_stats ();
    Engine.reset_stats ();
    Aggshap_relational.Database.reset_stats ();
    Aggshap_cq.Plan.reset_stats ();
    Aggshap_lineage.Ddnnf.reset_stats ()
  end;
  let result =
    match (score, fact_s) with
    | Api.Banzhaf, fact -> or_die (Api.banzhaf_all ?fact a db)
    | Api.Shapley, Some fact_s ->
      or_die (Api.shapley_fact ~fallback ?mc_seed ?kc_node_budget a db fact_s)
    | Api.Shapley, None ->
      or_die (Api.shapley_all ~fallback ?mc_seed ?jobs ~cache ?kc_node_budget a db)
  in
  (match result.Api.report with
   | Some report ->
     Printf.printf "class: %s; algorithm: %s\n"
       (Hierarchy.cls_to_string report.Solver.cls)
       report.Solver.algorithm
   | None -> ());
  List.iter
    (fun (fact, outcome) ->
      match (score, outcome) with
      | Api.Banzhaf, Solver.Exact v ->
        Printf.printf "%-30s %s\n" (Fact.to_string fact) (Q.to_string v)
      | _, Solver.Exact v ->
        Printf.printf "%-30s %s (~ %g)\n" (Fact.to_string fact) (Q.to_string v)
          (Q.to_float v)
      | _, Solver.Estimate e ->
        Printf.printf "%-30s %.6f ± %.6f (%d samples)\n" (Fact.to_string fact)
          e.Monte_carlo.mean e.Monte_carlo.std_error e.Monte_carlo.samples)
    result.Api.values;
  if stats then print_kernel_stats ();
  0

(* ------------------------------------------------------------------ *)
(* session                                                             *)
(* ------------------------------------------------------------------ *)

let read_file what path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error msg -> die "cannot read %s: %s" what msg

let run_session query_s db_path agg_s tau_s updates_path jobs stats =
  let module Session = Aggshap_incr.Session in
  let module Script = Aggshap_incr.Script in
  let module Update = Aggshap_incr.Update in
  let q = parse_query_arg query_s in
  let db = read_database db_path in
  warn_schema q db;
  let a = make_agg_query agg_s tau_s q in
  check_jobs jobs;
  let ops =
    match Script.parse (read_file "update script" updates_path) with
    | Ok ops -> ops
    | Error msg -> die "%s: %s" updates_path msg
  in
  let session =
    match Api.trap (fun () -> Session.open_ ?jobs a db) with
    | Ok s -> s
    | Error msg -> die "%s" msg
  in
  let print_step label =
    Printf.printf "step %s\n" label;
    match Session.shapley_all session with
    | [] -> print_endline "  (no endogenous facts)"
    | results ->
      List.iter
        (fun (f, v) ->
          Printf.printf "  %-28s %s\n" (Fact.to_string f) (Q.to_string v))
        results
  in
  print_step "0 (initial)";
  List.iteri
    (fun i (line, op) ->
      (match Api.trap (fun () -> Session.apply session op) with
       | Ok () -> ()
       | Error msg -> die "%s: line %d: %s" updates_path line msg);
      print_step (Printf.sprintf "%d (%s)" (i + 1) (Update.to_string op)))
    ops;
  if stats then print_endline (Session.stats_to_string (Session.stats session));
  0

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let run_serve socket max_sessions state_dir jobs quiet =
  check_jobs jobs;
  if max_sessions < 1 then die "--max-sessions must be at least 1 (got %d)" max_sessions;
  let log =
    if quiet then fun _ -> ()
    else fun msg -> Printf.eprintf "shapctl serve: %s\n%!" msg
  in
  match
    Server.run
      { Server.socket; max_sessions; state_dir; default_jobs = jobs; log }
  with
  | Ok () -> 0
  | Error msg -> die "%s" msg

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let need_session action = function
  | Some s -> s
  | None -> die "client %s needs a SESSION argument" action

let client_error = function
  | Protocol.Error { line = Some n; message } -> die "server error (line %d): %s" n message
  | Protocol.Error { line = None; message } -> die "server error: %s" message
  | _ -> die "unexpected response from server"

let run_client action session socket query_s db_path agg_s tau_s fallback_s jobs
    updates_path op_s kc_node_budget retry_ms =
  check_jobs jobs;
  check_kc_budget kc_node_budget;
  let one req print =
    or_die
      (Client.with_connection ~retry_ms socket (fun c ->
           match Client.request c req with
           | Ok r -> Ok (print r)
           | Error msg -> Error msg))
  in
  match action with
  | "open" ->
    let session = need_session action session in
    let query = match query_s with Some q -> q | None -> die "client open needs --query" in
    let db_path = match db_path with Some d -> d | None -> die "client open needs --database" in
    let db = read_file "database" db_path in
    let spec = { Api.query; db; agg = agg_s; tau = tau_s; jobs } in
    one (Protocol.Open { session; spec }) (function
      | Protocol.Opened { session; facts } ->
        Printf.printf "opened %s (%d facts)\n" session facts
      | r -> client_error r);
    0
  | "solve" ->
    let session = need_session action session in
    one (Protocol.Solve { session }) (function
      | Protocol.Solved { values; _ } ->
        if values = [] then print_endline "(no endogenous facts)"
        else List.iter (fun (fact, v) -> Printf.printf "%-28s %s\n" fact v) values
      | r -> client_error r);
    0
  | "solve-query" ->
    (* Stateless one-shot solve: no session, so the exact fallback
       tiers work outside the frontier too. *)
    let query = match query_s with Some q -> q | None -> die "client solve-query needs --query" in
    let db_path = match db_path with Some d -> d | None -> die "client solve-query needs --database" in
    let db = read_file "database" db_path in
    one
      (Protocol.Solve_query
         { query; db; agg = agg_s; tau = tau_s; fallback = Some fallback_s;
           kc_node_budget })
      (function
      | Protocol.Query_solved { algorithm; values } ->
        Printf.printf "algorithm: %s\n" algorithm;
        if values = [] then print_endline "(no endogenous facts)"
        else List.iter (fun (fact, v) -> Printf.printf "%-28s %s\n" fact v) values
      | r -> client_error r);
    0
  | "update" ->
    let session = need_session action session in
    let script =
      match (updates_path, op_s) with
      | Some path, None -> read_file "update script" path
      | None, Some op -> op
      | Some _, Some _ -> die "client update takes --updates or --op, not both"
      | None, None -> die "client update needs --updates FILE or --op LINE"
    in
    one (Protocol.Update { session; script }) (function
      | Protocol.Updated { applied; _ } ->
        Printf.printf "applied %d update%s\n" applied (if applied = 1 then "" else "s")
      | r -> client_error r);
    0
  | "set-tau" ->
    let session = need_session action session in
    let tau = match tau_s with Some t -> t | None -> die "client set-tau needs --tau" in
    one (Protocol.Set_tau { session; tau }) (function
      | Protocol.Tau_set _ -> print_endline "tau set"
      | r -> client_error r);
    0
  | "explain" ->
    let session = need_session action session in
    one (Protocol.Explain { session }) (function
      | Protocol.Explained { cls; frontier; within_frontier; algorithm; plan; _ } ->
        Printf.printf "class: %s\n" cls;
        Printf.printf "frontier: %s\n" frontier;
        Printf.printf "within frontier: %s\n"
          (if within_frontier then "yes (polynomial)" else "no (#P-hard)");
        Printf.printf "algorithm: %s\n" algorithm;
        Printf.printf "plan (* = chosen):\n";
        List.iter (fun line -> Printf.printf "  %s\n" line) plan
      | r -> client_error r);
    0
  | "stats" ->
    one (Protocol.Stats { session }) (function
      | Protocol.Session_stats { session; stats } ->
        Printf.printf
          "session %s: steps=%d games=%d computed/%d reused flushes=%d facts=%d \
           endogenous=%d\n"
          session stats.Protocol.steps stats.Protocol.games_computed
          stats.Protocol.games_reused stats.Protocol.full_recomputes
          stats.Protocol.facts stats.Protocol.endogenous
      | Protocol.Server_stats { sessions; requests; evictions; restores } ->
        List.iter
          (fun (name, live) ->
            Printf.printf "session %s (%s)\n" name (if live then "live" else "evicted"))
          sessions;
        Printf.printf "requests=%d evictions=%d restores=%d\n" requests evictions
          restores
      | r -> client_error r);
    0
  | "close" ->
    let session = need_session action session in
    one (Protocol.Close { session }) (function
      | Protocol.Closed { session } -> Printf.printf "closed %s\n" session
      | r -> client_error r);
    0
  | "ping" ->
    one Protocol.Ping (function
      | Protocol.Pong -> print_endline "ok"
      | r -> client_error r);
    0
  | "shutdown" ->
    one Protocol.Shutdown (function
      | Protocol.Shutting_down -> print_endline "server shutting down"
      | r -> client_error r);
    0
  | "raw" ->
    (* One raw protocol line per non-blank stdin line; replies are
       printed verbatim, in order. *)
    let text = In_channel.input_all stdin in
    let lines = Aggshap_incr.Script.lines text in
    or_die
      (Client.with_connection ~retry_ms socket (fun c ->
           let rec go = function
             | [] -> Ok ()
             | line :: rest ->
               if String.trim line = "" then go rest
               else begin
                 match Client.send_line c line with
                 | Error _ as e -> e
                 | Ok () -> (
                   match Client.recv_line c with
                   | Error _ as e -> e
                   | Ok reply ->
                     print_endline reply;
                     go rest)
               end
           in
           go lines));
    0
  | _ ->
    die
      "unknown client action %S (use open, solve, solve-query, update, set-tau, \
       explain, stats, close, ping, shutdown, or raw)"
      action

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let run_fuzz seed trials max_endo jobs max_failures updates fallback_s verbose =
  if trials < 1 then die "--trials must be at least 1 (got %d)" trials;
  if max_endo < 1 then die "--max-endo must be at least 1 (got %d)" max_endo;
  check_jobs jobs;
  if max_failures < 1 then die "--max-failures must be at least 1 (got %d)" max_failures;
  let kc_always, auto_always =
    match or_die (Api.parse_fallback fallback_s) with
    | `Naive, _ -> (false, false)
    | `Knowledge_compilation, _ -> (true, false)
    | `Auto, _ -> (false, true)
    | (`Monte_carlo _ | `Fail), _ ->
      die "fuzz --fallback takes naive, knowledge-compilation, or auto (got %S)"
        fallback_s
  in
  if kc_always then
    Printf.printf
      "fuzz: knowledge-compilation tier cross-checked on every supported trial\n%!";
  if auto_always then
    Printf.printf
      "fuzz: planner auto mode cross-checked against naive on every trial\n%!";
  let module Fuzz = Aggshap_check.Fuzz in
  let module Trial = Aggshap_check.Trial in
  let module Utrial = Aggshap_check.Utrial in
  let module Oracle = Aggshap_check.Oracle in
  let config =
    { Fuzz.seed; trials; max_endo;
      par_jobs = Option.value jobs ~default:Fuzz.default.Fuzz.par_jobs;
      max_failures; kc_always; auto_always }
  in
  if updates then begin
    Printf.printf "fuzz: update sequences, seed=%d trials=%d max-endo=%d\n%!" seed trials
      max_endo;
    let on_trial i t =
      if verbose then Printf.printf "trial %d: %s\n%!" i (Utrial.to_string t)
    in
    let report = Fuzz.run_updates ~on_trial config in
    List.iter
      (fun { Fuzz.utrial; ufailure; ushrunk; ushrunk_failure } ->
        Printf.printf "\nFAILURE on %s\n  %s\n" (Utrial.to_string utrial)
          (Oracle.failure_to_string ufailure);
        Printf.printf "shrunk to %s\n  %s\nreproducer:\n%s" (Utrial.to_string ushrunk)
          (Oracle.failure_to_string ushrunk_failure)
          (Utrial.to_script ushrunk))
      report.Fuzz.ufailures;
    let n_failures = List.length report.Fuzz.ufailures in
    Printf.printf "fuzz: %d trials, %d update steps, %d failure%s\n" report.Fuzz.uran
      report.Fuzz.usteps n_failures
      (if n_failures = 1 then "" else "s");
    if n_failures = 0 then 0 else 1
  end
  else begin
    Printf.printf "fuzz: seed=%d trials=%d max-endo=%d\n%!" seed trials max_endo;
    let on_trial i t = if verbose then Printf.printf "trial %d: %s\n%!" i (Trial.to_string t) in
    let report = Fuzz.run ~on_trial config in
    List.iter
      (fun { Fuzz.trial; failure; shrunk; shrunk_failure } ->
        Printf.printf "\nFAILURE on %s\n  %s\n" (Trial.to_string trial)
          (Oracle.failure_to_string failure);
        Printf.printf "shrunk to %s\n  %s\nreproducer:\n%s" (Trial.to_string shrunk)
          (Oracle.failure_to_string shrunk_failure)
          (Trial.to_script shrunk))
      report.Fuzz.failures;
    let n_failures = List.length report.Fuzz.failures in
    Printf.printf "fuzz: %d trials, %d failure%s\n" report.Fuzz.ran n_failures
      (if n_failures = 1 then "" else "s");
    if n_failures = 0 then 0 else 1
  end

(* ------------------------------------------------------------------ *)
(* cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let query_arg =
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY"
         ~doc:"Conjunctive query, e.g. 'Q(x) <- R(x,y), S(y)'.")

let db_arg =
  Arg.(required & opt (some string) None & info [ "d"; "database" ] ~docv:"FILE"
         ~doc:"Database file: one fact per line, e.g. 'R(1,2)' or 'S(3) @exo'.")

let agg_arg =
  Arg.(value & opt string "count" & info [ "a"; "aggregate" ] ~docv:"AGG"
         ~doc:"Aggregate function: sum, count, count-distinct, min, max, avg, \
               median, quantile:P/Q, has-duplicates.")

let tau_arg =
  Arg.(value & opt (some string) None & info [ "t"; "tau" ] ~docv:"SPEC"
         ~doc:"Value function: id:REL:POS, relu:REL:POS, gt:REL:POS:BOUND, \
               const:REL:VALUE. Defaults to the constant 1.")

let fact_arg =
  Arg.(value & opt (some string) None & info [ "f"; "fact" ] ~docv:"FACT"
         ~doc:"Restrict to one endogenous fact, e.g. 'R(1,2)'.")

let score_arg =
  Arg.(value & opt string "shapley" & info [ "score" ] ~docv:"SCORE"
         ~doc:"Attribution score: shapley (default) or banzhaf.")

let fallback_arg =
  Arg.(value & opt string "naive" & info [ "fallback" ] ~docv:"MODE"
         ~doc:"What to do outside the tractability frontier: auto (the solve \
               planner picks the cheapest applicable exact tier from the \
               database's statistics), naive (exact, exponential), \
               knowledge-compilation (or kc; exact via d-DNNF lineage \
               compilation and weighted model counting), mc:SAMPLES or \
               mc:SAMPLES:SEED (Monte Carlo; a seed makes the estimates \
               reproducible), or fail.")

let kc_budget_arg =
  Arg.(value & opt (some int) None & info [ "kc-node-budget" ] ~docv:"N"
         ~doc:"Cap the knowledge-compilation tier at N d-DNNF decision \
               nodes. A compilation that would exceed the budget aborts \
               mid-solve and the planner falls back to its next choice \
               (counted by kc_budget_aborts in --stats).")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the all-facts batch (default: the \
               recommended domain count of the machine; 1 disables \
               parallelism). Results are identical for every N.")

let cache_arg =
  Arg.(value & opt bool true & info [ "cache" ] ~docv:"BOOL"
         ~doc:"Share dynamic-programming tables across the per-fact batch \
               loop (default true). Results are identical either way.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print arithmetic/convolution kernel counters after solving \
               (approximate when --jobs > 1).")

let classify_cmd =
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a CQ and print its per-aggregate tractability")
    Term.(const run_classify $ query_arg)

let eval_cmd =
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate an aggregate query over a database")
    Term.(const run_eval $ query_arg $ db_arg $ agg_arg $ tau_arg)

let explain_db_arg =
  Arg.(value & opt (some string) None & info [ "d"; "database" ] ~docv:"FILE"
         ~doc:"Optional database file; its segment statistics feed the solve \
               planner's cost model, so the plan shows per-candidate cost \
               estimates.")

let explain_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print the explanation as one JSON object (query, aggregate, \
               hierarchy chain, frontier verdict, and the solve plan with \
               per-candidate cost estimates and rejection reasons) instead \
               of text.")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain how one aggregate query would be solved: the hierarchy \
             classification chain, the aggregate's tractability frontier, \
             the solve plan with per-candidate cost estimates, the selected \
             algorithm, and the decomposition tree the generic engine \
             evaluates.")
    Term.(const run_explain $ query_arg $ agg_arg $ tau_arg $ fallback_arg
          $ explain_db_arg $ kc_budget_arg $ explain_json_arg)

let solve_cmd =
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute Shapley values of endogenous facts")
    Term.(const run_solve $ query_arg $ db_arg $ agg_arg $ tau_arg $ fact_arg $ fallback_arg $ score_arg $ jobs_arg $ cache_arg $ kc_budget_arg $ stats_arg)

let updates_file_arg =
  Arg.(required & opt (some string) None & info [ "u"; "updates" ] ~docv:"FILE"
         ~doc:"Update script: one operation per line ('insert R(4, 10)', \
               'insert S(30) \\@exo', 'delete R(1, 10)', 'set_tau id:R:0'), \
               $(b,#) comments and blank lines ignored.")

let session_stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print session reuse statistics (games recomputed vs served \
               from cache, DP-table cache hits) after the replay.")

let session_cmd =
  Cmd.v
    (Cmd.info "session"
       ~doc:"Replay an update script through a live incremental solver \
             session, printing exact Shapley values after every step. \
             Values are bit-identical to re-solving from scratch; only \
             the state dirtied by each update is recomputed.")
    Term.(const run_session $ query_arg $ db_arg $ agg_arg $ tau_arg $ updates_file_arg $ jobs_arg $ session_stats_arg)

let socket_arg =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Path of the server's Unix-domain socket.")

let max_sessions_arg =
  Arg.(value & opt int 16 & info [ "max-sessions" ] ~docv:"N"
         ~doc:"Resident-session capacity (default 16). The least-recently \
               used session beyond it is snapshotted and evicted; evicted \
               sessions are restored transparently on their next request.")

let state_dir_arg =
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
         ~doc:"Directory for session snapshots (created if absent). \
               Sessions found there are re-registered at startup, so they \
               survive server restarts. Without it, eviction keeps \
               snapshots in memory only.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress lifecycle logging on stderr.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-tenant session server: named incremental solver \
             sessions (one per tenant/database) behind a newline-delimited \
             JSON protocol over a Unix-domain socket, with LRU eviction \
             and snapshot/restore of session state. Answers are \
             bit-identical to 'shapctl solve' and 'shapctl session' on \
             the same inputs.")
    Term.(const run_serve $ socket_arg $ max_sessions_arg $ state_dir_arg $ jobs_arg $ quiet_arg)

let client_action_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ACTION"
         ~doc:"One of open, solve, solve-query, update, set-tau, explain, \
               stats, close, ping, shutdown, raw.")

let client_session_arg =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"SESSION"
         ~doc:"Session (tenant) name; required by every action except \
               solve-query, ping, shutdown, raw, and server-wide stats.")

let client_query_arg =
  Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY"
         ~doc:"Conjunctive query for 'open'.")

let client_db_arg =
  Arg.(value & opt (some string) None & info [ "d"; "database" ] ~docv:"FILE"
         ~doc:"Database file for 'open' (sent to the server as text).")

let client_updates_arg =
  Arg.(value & opt (some string) None & info [ "u"; "updates" ] ~docv:"FILE"
         ~doc:"Update script file for 'update'.")

let client_op_arg =
  Arg.(value & opt (some string) None & info [ "op" ] ~docv:"LINE"
         ~doc:"A single update-script line for 'update', e.g. 'insert R(4, 7)'.")

let retry_ms_arg =
  Arg.(value & opt int 5000 & info [ "retry-ms" ] ~docv:"MS"
         ~doc:"How long to keep retrying the initial connection while the \
               server is still starting (default 5000).")

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:"Drive a running 'shapctl serve' instance: one request per \
             invocation (open/solve/solve-query/update/set-tau/explain/\
             stats/close/ping/shutdown), or 'raw' to stream \
             newline-delimited JSON requests from stdin and print the \
             raw replies. solve-query is a stateless one-shot solve \
             (--fallback selects the exact tier outside the frontier; \
             Monte Carlo is rejected over the wire).")
    Term.(const run_client $ client_action_arg $ client_session_arg $ socket_arg
          $ client_query_arg $ client_db_arg $ agg_arg $ tau_arg $ fallback_arg
          $ jobs_arg $ client_updates_arg $ client_op_arg $ kc_budget_arg
          $ retry_ms_arg)

let seed_arg =
  Arg.(value & opt int 0 & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Master seed; every trial derives deterministically from it.")

let trials_arg =
  Arg.(value & opt int 100 & info [ "n"; "trials" ] ~docv:"N"
         ~doc:"Number of random trials to run.")

let max_endo_arg =
  Arg.(value & opt int 8 & info [ "max-endo" ] ~docv:"K"
         ~doc:"Cap on endogenous facts per trial (the naive oracle costs \
               $(b,2^K) evaluations).")

let max_failures_arg =
  Arg.(value & opt int 3 & info [ "max-failures" ] ~docv:"N"
         ~doc:"Stop after collecting this many shrunk failures.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every trial as it runs.")

let updates_flag_arg =
  Arg.(value & flag & info [ "updates" ]
         ~doc:"Fuzz update sequences instead of single solves: each trial \
               replays a random insert/delete/set_tau script through a \
               live session, cross-checking every step against a \
               from-scratch batch solve.")

let fuzz_fallback_arg =
  Arg.(value & opt string "naive" & info [ "fallback" ] ~docv:"MODE"
         ~doc:"Which exact fallback tier the campaign stresses: naive \
               (default; the knowledge-compilation tier is still \
               cross-checked on trials outside the frontier), \
               knowledge-compilation (or kc) to additionally drive the \
               lineage pipeline on every trial whose aggregate it \
               supports, inside the frontier included, or auto to \
               cross-check the solve planner's pick against naive \
               enumeration on every trial.")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential-testing oracle: random aggregate queries and \
             databases, cross-validating the polynomial DPs against naive \
             enumeration, the Shapley axioms, and every engine \
             configuration; failures are shrunk to a minimal reproducer.")
    Term.(const run_fuzz $ seed_arg $ trials_arg $ max_endo_arg $ jobs_arg $ max_failures_arg $ updates_flag_arg $ fuzz_fallback_arg $ verbose_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "shapctl" ~version:"1.0.0"
       ~doc:"Shapley values for aggregate conjunctive queries")
    [ classify_cmd; explain_cmd; eval_cmd; solve_cmd; session_cmd; serve_cmd;
      client_cmd; fuzz_cmd ]

let () = exit (Cmd.eval' main_cmd)
