(* perfbench — the repository benchmark.

   Usage (from the repository root, after building; perfbench/run.sh
   does both):

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] it drives the built [shapctl] binary from outside,
   from this one process, in a closed loop for S seconds, checks every
   answer, and reports the end-to-end metrics. With [--trace 1] it runs
   a fixed, seeded sequence of the same workload in-process, records a
   span around each call into a layer and reads the library's work
   counters, and reports the per-layer metrics. Every metric is printed
   by name with its unit and sample count; the last line of standard
   output is one JSON object with the results.

   The run pins itself and its children to one processor. Result times
   are calibrated (see calib.ml): a fixed unit of work is timed between
   operations and every time is scaled by the unit's reference time over
   its median in the run. Raw wall times are printed beside them. A
   workload's typical latency, [op_p50_gm_s], is the geometric mean of
   the median latencies of its operation classes (menu entries, tenant
   roles, query kinds), which does not jump from one class to another
   as their speeds shift, as the median of the whole mix does.

   Workloads (see [workloads] below for why each was chosen):
     cli_frontier     shapctl solve on the six frontier DPs
     cli_beyond       shapctl solve --fallback auto beyond the frontier
     serve_sessions   one connection; tenants outnumber resident sessions
     serve_contended  two connections; each step waits behind a KC query

   Files go to _perfbench/ in the working directory: database files,
   server state and the server socket in a directory removed at exit,
   and the span log of a traced run. *)

open Perfbench_lib
module Api = Aggshap_api.Api
module Protocol = Aggshap_server.Protocol
module Registry = Aggshap_server.Registry
module Session = Aggshap_incr.Session
module Strategy = Aggshap_core.Strategy
module Batch = Aggshap_core.Batch
module Memo = Aggshap_core.Memo
module Solver = Aggshap_core.Solver
module Lineage = Aggshap_lineage.Lineage
module Eval = Aggshap_cq.Eval
module Database = Aggshap_relational.Database
module Agg_query = Aggshap_agg.Agg_query

let sprintf = Printf.sprintf
let now = Unix.gettimeofday
let get = Verify.get

let shapctl = List.fold_left Filename.concat "_build" [ "default"; "bin"; "shapctl.exe" ]
(* Run files live in a directory of this process's own, removed at
   exit, so concurrent runs in one checkout cannot share a server. *)
let out_dir = "_perfbench"
let work = Filename.concat out_dir (string_of_int (Unix.getpid ()))
let socket = Filename.concat work "s.sock"
let state_dir = Filename.concat work "state"

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type serve = {
  max_sessions : int;
  rows : int;  (** facts per tenant database, before dedup *)
  queries : bool;  (** a second connection sends a stateless KC query ahead of each step *)
}

type kind = Cli of Inst.entry list | Serve of serve

let workloads =
  [ ( "cli_frontier",
      "the paper's six frontier DPs: Engine, Tables and Bigint do almost all the work, KC and \
       the wire none",
      Cli Inst.frontier_menu );
    ( "cli_beyond",
      "past the frontier the planner picks KC or naive enumeration; a Tables-only change \
       should not move it",
      Cli Inst.beyond_menu );
    ( "serve_sessions",
      "more tenants than resident sessions: hot tenants take the resident Session path, one \
       step in five the Registry restore path",
      Serve { max_sessions = Inst.hot + 1; rows = 300; queries = false } );
    ( "serve_contended",
      "all tenants resident, but each step follows a KC query into the single server loop: \
       interactive latency shows head-of-line blocking",
      Serve { max_sessions = Inst.hot + Inst.cold; rows = 300; queries = true } ) ]

(* Instances per menu entry in a CLI pool, and RST queries in the
   contended query stream. *)
let variants = 3
let setup_reps = 3
let op_timeout = 60.0
let traced_steps = 40

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let usage = "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let wname, seed, seconds, traced =
  let w = ref "" and seed = ref (-1) and secs = ref 0 and tr = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string w, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int secs, "S measured seconds");
      ("--trace", Arg.Set_int tr, "0|1 per-layer traced run") ]
    (fun a -> die "unexpected argument %S\n%s" a usage)
    usage;
  if !seed < 0 || !secs < 1 || (!tr <> 0 && !tr <> 1) then die "%s" usage;
  if not (List.exists (fun (n, _, _) -> n = !w) workloads) then
    die "unknown workload %S (%s)" !w (String.concat ", " (List.map (fun (n, _, _) -> n) workloads));
  (!w, !seed, !secs, !tr = 1)

(* ------------------------------------------------------------------ *)
(* Outcomes and metrics                                                *)
(* ------------------------------------------------------------------ *)

let outcomes = Verify.tally ()
let outcome = Verify.record outcomes

type metric = { name : string; unit_ : string; samples : int; value : float; note : string }

let metrics : metric list ref = ref []

let emit ?(note = "") name unit_ samples value =
  metrics := { name; unit_; samples; value; note } :: !metrics

let info fmt = Printf.printf (fmt ^^ "\n%!")

let pct xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  Percentile.percentile a p

let median xs = pct xs 0.5
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let rec rm_rf path =
  try
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  with Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Median wall time of [reps] repetitions of [f]. *)
let time_median reps f =
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

(* ------------------------------------------------------------------ *)
(* CLI workloads                                                       *)
(* ------------------------------------------------------------------ *)

let cli_args (i : Inst.instance) path =
  [ "solve"; "-q"; i.query; "-d"; path; "-a"; i.agg; "-t"; i.tau; "--jobs"; "1" ]
  @ match i.fallback with Some f -> [ "--fallback"; f ] | None -> []

(* One [shapctl solve] process, checked. *)
let cli_op ((i : Inst.instance), path, e) =
  let r = Proc.run ~timeout:op_timeout shapctl (cli_args i path) in
  outcome i.name
    (if r.Proc.timed_out then Error "timed out"
     else if r.Proc.code <> 0 then Error (sprintf "shapctl exited with %d" r.Proc.code)
     else Result.bind (Verify.parse_solve_output r.Proc.out) (Verify.check e));
  r

(* Generates the pool and writes its database files. *)
let cli_inputs menu expected =
  let dir = Filename.concat work "db" in
  fresh_dir dir;
  List.mapi
    (fun k (i : Inst.instance) ->
      let path = Filename.concat dir (sprintf "i%02d.db" k) in
      write_file path i.db;
      (i, path, List.nth expected k))
    (Inst.pool ~seed ~variants menu)

(* Set-ups, each after five calibration units. *)
let timed_setups cal f =
  List.init setup_reps (fun r ->
      for _ = 1 to 5 do
        Calib.sample cal
      done;
      let t0 = now () in
      let v = f r in
      (now () -. t0, v))

(* The timing metrics of an end-to-end run. [classes] holds the
   latencies of the measured operations by class (menu entry, tenant
   role or query kind); [busy] is the measured span without its
   calibration units. Raw wall-time figures are report lines; the
   result metrics are calibrated. *)
let emit_timings ~setups ~setup_cal ~cal ~classes ~busy what =
  let f = Calib.factor cal and fs = Calib.factor setup_cal in
  let all = List.concat_map snd classes in
  let n = List.length all and k = List.length classes in
  info "calibration: median unit %.5f s over %d during set-up, %.5f s over %d during the run \
        (reference %.3f s): factors %.4f and %.4f"
    (Calib.median setup_cal) (Calib.count setup_cal) (Calib.median cal) (Calib.count cal)
    Calib.reference_s fs f;
  List.iter
    (fun (name, xs) ->
      info "  %-22s median %.4f s, p90 %.4f s over %d" name (median xs) (pct xs 0.9) (List.length xs))
    classes;
  let gm_median =
    exp (List.fold_left (fun acc (_, xs) -> acc +. log (median xs)) 0.0 classes /. float_of_int k)
  in
  let setup = median (List.map fst setups) in
  emit "setup_raw_s" "s" setup_reps setup ~note:"raw wall time, median of the set-ups";
  emit "setup_s" "s" setup_reps (setup *. fs) ~note:"calibrated; inputs, start, opens, warm-up";
  emit "op_p50_raw_s" "s" n (pct all 0.5) ~note:("raw wall time over the whole mix: " ^ what);
  emit "op_p90_raw_s" "s" n (pct all 0.9) ~note:"raw wall time over the whole mix";
  emit "op_p50_gm_s" "s" n (gm_median *. f)
    ~note:(sprintf "calibrated; geometric mean of the medians of %d operation classes" k);
  emit "op_p90_s" "s" n (pct all 0.9 *. f) ~note:"calibrated; over the whole mix";
  emit "ops_raw_per_s" "1/s" n (float_of_int n /. busy) ~note:"raw, closed loop";
  emit "ops_per_s" "1/s" n (float_of_int n /. busy /. f) ~note:"calibrated, closed loop"

(* Groups [(class, x)] pairs by class, in order of first appearance. *)
let by_class pairs =
  List.fold_left
    (fun acc (c, x) ->
      if List.mem_assoc c acc then List.map (fun (c', xs) -> if c' = c then (c', x :: xs) else (c', xs)) acc
      else acc @ [ (c, [ x ]) ])
    [] pairs

let cli_measure menu expected =
  let setup_cal = Calib.create () in
  let setups =
    timed_setups setup_cal (fun _ ->
        let items = cli_inputs menu expected in
        (* Warm-up: one process per menu entry. *)
        List.iteri (fun k it -> if k < List.length menu then ignore (cli_op it)) items;
        items)
  in
  let items = Array.of_list (snd (List.nth setups (setup_reps - 1))) in
  let cal = Calib.create () in
  let ops = ref [] and rss = ref 0 and n = ref 0 in
  let t0 = now () in
  while now () -. t0 < float_of_int seconds do
    Calib.sample cal;
    let ((i : Inst.instance), _, _) as it = items.(!n mod Array.length items) in
    let r = cli_op it in
    ops := (i.name, r.Proc.wall) :: !ops;
    rss := max !rss r.Proc.rss_kib;
    incr n
  done;
  let busy = now () -. t0 -. Calib.total cal in
  emit_timings ~setups ~setup_cal ~cal ~classes:(by_class (List.rev !ops)) ~busy
    "shapctl solve, spawn to exit, one client";
  emit "peak_rss_mb" "MB" !n (float_of_int !rss /. 1024.0) ~note:"largest shapctl child"

(* ------------------------------------------------------------------ *)
(* In-process replay of a CLI workload (traced run)                    *)
(* ------------------------------------------------------------------ *)

type pass = {
  counters : Trace.tally;  (** library counters, summed over operations *)
  mutable naive_s : float;
  mutable kc_cpu : float * float;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable wall : float;
}

let new_pass () =
  { counters = Trace.tally (); naive_s = 0.0; kc_cpu = (0.0, 0.0); memo_hits = 0;
    memo_misses = 0; wall = 0.0 }

let route_name = function
  | Strategy.Frontier_dp -> "dp"
  | Strategy.Knowledge_compilation -> "kc"
  | Strategy.Naive -> "naive"
  | Strategy.Monte_carlo _ | Strategy.Fail -> "other"

let add_kc_cpu p =
  let c, w = Trace.ddnnf_cpu () in
  p.kc_cpu <- (fst p.kc_cpu +. c, snd p.kc_cpu +. w)

(* One stateless solve in-process, as [shapctl solve] or the server's
   [solve_query] does it, followed by stand-alone probes of the eval and
   lineage layers and (inside the frontier) the batch memo. *)
let inproc_solve p k ((i : Inst.instance), e) =
  Trace.op := k;
  Trace.reset_counters ();
  let fallback = Verify.fallback i in
  let a, db, plan, values =
    Trace.span "op" (fun () ->
        let q = Trace.span "parse.query" (fun () -> get i.name (Api.parse_query i.query)) in
        let db = Trace.span "parse.db" (fun () -> get i.name (Api.parse_database_text i.db)) in
        let a =
          Trace.span "parse.query" (fun () ->
              get i.name (Api.make_agg_query ~agg:i.agg ~tau:(Some i.tau) q))
        in
        let plan =
          Trace.span "strategy.plan" (fun () ->
              Strategy.plan ~stats:(Strategy.db_stats db) ~fallback a)
        in
        let r = Trace.span "solver.solve" (fun () -> Api.shapley_all ~fallback ~jobs:1 a db) in
        if plan.Strategy.chosen = Strategy.Naive then p.naive_s <- p.naive_s +. Trace.last_duration ();
        (a, db, plan, r))
  in
  Trace.add p.counters (Trace.read_counters ());
  Trace.bump p.counters ("strategy.route_count." ^ route_name plan.Strategy.chosen) 1;
  add_kc_cpu p;
  outcome i.name
    (Result.bind values (fun r ->
         Verify.check e
           (List.map
              (fun (f, o) ->
                match o with
                | Solver.Exact v -> (Aggshap_relational.Fact.to_string f, Aggshap_arith.Rational.to_string v)
                | Solver.Estimate _ -> ("", "estimate"))
              r.Api.values)));
  Trace.span "probes" (fun () ->
      ignore (Trace.span "eval.answers" (fun () -> Eval.answers a.Agg_query.query db));
      let ex = Trace.span "lineage.extract" (fun () -> Lineage.extract a db) in
      if Lineage.supports a.Agg_query.alpha then
        ignore
          (Trace.span "lineage.events" (fun () ->
               Lineage.events a.Agg_query.alpha ex.Lineage.store ex.Lineage.answers));
      if plan.Strategy.chosen = Strategy.Frontier_dp then
        match snd (Batch.shapley_all ~jobs:1 a db) with
        | { Batch.cache = Some m; _ } ->
          p.memo_hits <- p.memo_hits + m.Memo.hits;
          p.memo_misses <- p.memo_misses + m.Memo.misses
        | _ -> ())

let run_pass f =
  let p = new_pass () in
  let t0 = now () in
  f p;
  p.wall <- now () -. t0;
  p

(* Counter totals of a traced run, kept for the next traced run of the
   same workload and seed. *)
let counters_file () = Filename.concat out_dir (sprintf "counters-%s-%d.txt" wname seed)

let previous_counters () =
  let t = Trace.tally () in
  (match open_in (counters_file ()) with
   | exception Sys_error _ -> ()
   | ic ->
     (try
        while true do
          Scanf.sscanf (input_line ic) "%s %d" (fun k v -> Trace.bump t k v)
        done
      with End_of_file | Scanf.Scan_failure _ | Failure _ -> ());
     close_in ic);
  t

let save_counters (t : Trace.tally) =
  let oc = open_out (counters_file ()) in
  Hashtbl.iter (fun k v -> Printf.fprintf oc "%s %d\n" k v) t;
  close_out oc

(* The reported pass runs first, traced, in a fresh process like a
   [shapctl] run. The sequence then runs four more times, untraced,
   traced, traced, untraced, each after a full major collection: all
   four see the same warm process-wide caches and the order cancels a
   steady drift, so the difference of the totals is the tracing
   overhead, and their counters must agree. Counters must also agree
   with the previous traced run of this workload and seed, when there is
   one. *)
let traced_passes f =
  let reported = run_pass f in
  let spans = !Trace.spans in
  let pass traced =
    Gc.full_major ();
    Trace.enabled := traced;
    run_pass f
  in
  let plain = pass false in
  let again = pass true in
  let again' = pass true in
  let plain' = pass false in
  Trace.enabled := true;
  Trace.spans := spans;
  let prev = previous_counters () in
  let across_runs = if Hashtbl.length prev = 0 then [] else Trace.differing reported.counters prev in
  save_counters reported.counters;
  let within =
    List.concat_map (fun p -> Trace.differing plain.counters p.counters) [ again; again'; plain' ]
  in
  let differ = List.sort_uniq compare (across_runs @ within) in
  if Hashtbl.length prev = 0 then info "no earlier traced run of this seed to compare counters with";
  if differ = [] then info "counters repeat exactly"
  else
    info "counters that differ: %s (from the previous run: %s)" (String.concat ", " differ)
      (String.concat ", " across_runs);
  emit "counters.mismatches" "count" 5 (float_of_int (List.length differ))
    ~note:"counters differing from the previous traced run, or between the warm passes";
  let untraced = plain.wall +. plain'.wall in
  emit "trace.overhead_ratio" "ratio" 4 ((again.wall +. again'.wall -. untraced) /. untraced)
    ~note:"(traced − untraced) ÷ untraced wall time of the same warm sequence, two passes each";
  reported

(* Per-instance regret of the planner's auto pick: its solve time over
   the best forced exact tier's, on instances where more than one exact
   tier is feasible (naive only up to the naive cross-check cap). *)
let regret items =
  let ratios =
    List.filter_map
      (fun ((i : Inst.instance), _) ->
        let a = Verify.agg_query i and db = get i.name (Api.parse_database_text i.db) in
        if i.fallback <> Some "auto" || Solver.within_frontier a.Agg_query.alpha a.Agg_query.query
        then None
        else
          let tiers =
            (if Lineage.supports a.Agg_query.alpha then [ `Knowledge_compilation ] else [])
            @ if Database.endo_size db <= Verify.naive_cap then [ `Naive ] else []
          in
          if List.length tiers < 2 then None
          else
            let t fallback = time_median 15 (fun () -> Api.shapley_all ~fallback ~jobs:1 a db) in
            let auto = t `Auto in
            Some (auto /. List.fold_left min infinity (List.map t tiers)))
      items
  in
  match ratios with
  | [] -> (1.0, 0)
  | _ -> (List.fold_left max 0.0 ratios, List.length ratios)

let emit_counters (p : pass) =
  let c = Trace.get p.counters in
  List.iter
    (fun k -> emit k "count" 1 (float_of_int (c k)))
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) p.counters []));
  emit "tables.small_ratio" "ratio" 1 (ratio (c "tables.convolve_small") (c "tables.convolve"));
  emit "ddnnf.cache_hit_ratio" "ratio" 1
    (ratio (c "ddnnf.cache_hits") (c "ddnnf.cache_hits" + c "ddnnf.cache_misses"));
  emit "memo.hit_ratio" "ratio" 1 (ratio p.memo_hits (p.memo_hits + p.memo_misses))
    ~note:"DP-table cache: batch memo (CLI) or session tables (server)";
  emit "ddnnf.compile_cpu_s" "s" 1 (fst p.kc_cpu) ~note:"CPU time, from Ddnnf.stats";
  emit "ddnnf.wmc_cpu_s" "s" 1 (snd p.kc_cpu) ~note:"CPU time, from Ddnnf.stats";
  emit "naive.solve_s" "s" 1 p.naive_s ~note:"solve spans of naive-routed instances"

let emit_span_totals names =
  List.iter
    (fun n -> emit (n ^ "_s") "s" (List.length (List.filter (fun s -> s.Trace.name = n) !Trace.spans)) (Trace.total n))
    names

let cli_traced items =
  let p = traced_passes (fun p -> List.iteri (inproc_solve p) items) in
  emit_counters p;
  emit_span_totals
    [ "parse.query"; "parse.db"; "strategy.plan"; "eval.answers"; "solver.solve"; "lineage.extract";
      "lineage.events" ];
  (* The CLI once per instance, next to an in-process parse+plan+solve
     of the same instance: the process's own share of a solve. *)
  let dir = Filename.concat work "db" in
  fresh_dir dir;
  let overhead =
    List.mapi
      (fun k ((i : Inst.instance), e) ->
        let path = Filename.concat dir (sprintf "i%02d.db" k) in
        write_file path i.db;
        let cli = (cli_op (i, path, e)).Proc.wall in
        let t0 = now () in
        let a = Verify.agg_query i and db = get i.name (Api.parse_database_text i.db) in
        let fallback = Verify.fallback i in
        ignore (Strategy.plan ~stats:(Strategy.db_stats db) ~fallback a);
        ignore (Api.shapley_all ~fallback ~jobs:1 a db);
        cli -. (now () -. t0))
      items
  in
  emit "shapctl.overhead_s" "s" (List.length overhead) (median overhead)
    ~note:"median of (shapctl wall − in-process parse+plan+solve) per instance";
  let r, n = regret items in
  emit "strategy.regret" "ratio" n r
    ~note:"worst auto ÷ best forced exact tier; 1 when no instance offers a choice"

(* ------------------------------------------------------------------ *)
(* Server workloads                                                    *)
(* ------------------------------------------------------------------ *)

type tstate = { t : Inst.tenant; exp : Verify.expected array; mutable touch : int }

let spec (i : Inst.instance) = { Api.query = i.query; db = i.db; agg = i.agg; tau = Some i.tau; jobs = Some 1 }

(* References for both states of every tenant: its initial database
   (state 0) and that database after its first update (state 1), from
   an in-process session. *)
let tenant_states sv =
  List.map
    (fun (t : Inst.tenant) ->
      let a = Verify.agg_query t.inst and db = get t.tname (Api.parse_database_text t.inst.db) in
      let s = Session.open_ ~jobs:1 a db in
      let e0 = Verify.expected_of t.tname a db (Session.shapley_all s) in
      ignore (get t.tname (Api.apply_script s (Inst.update_script t ~touch:0)));
      let e1 = Verify.expected_of t.tname a (Session.database s) (Session.shapley_all s) in
      { t; exp = [| e0; e1 |]; touch = 0 })
    (Inst.tenants ~seed ~rows:sv.rows)
  |> Array.of_list

let query_pool () =
  List.map (fun i -> (i, Verify.expect i)) (Inst.pool ~seed ~variants Inst.kc_query_menu)

let values_of = function
  | Protocol.Solved { values; _ } | Protocol.Query_solved { values; _ } -> Ok values
  | Protocol.Error { message; _ } -> Error ("server error: " ^ message)
  | _ -> Error "unexpected reply"

type stream = {
  mutable updates : float list;
  mutable solves : float list;
  mutable by_role : (string * float) list;  (** tenant role and latency of each step *)
  mutable by_query : (string * float) list;  (** query kind and latency of each query *)
}

(* The interactive client: pick a tenant, send its update script, then
   solve, check the values against the state the update produced. A
   calibration unit runs before each step, when [cal] is given. *)
let interactive ?cal tenants ~pick ~continue st =
  let pending = ref None in
  fun () ->
    match !pending with
    | Some req ->
      pending := None;
      Some req
    | None when not (continue ()) -> None
    | None ->
      Option.iter Calib.sample cal;
      let k = pick () in
      let ts = tenants.(k) in
      let name = ts.t.Inst.tname and touch = ts.touch in
      ts.touch <- touch + 1;
      let state = if touch mod 2 = 0 then 1 else 0 in
      let role = (if k < Inst.hot then "hot " else "cold ") ^ ts.t.Inst.inst.Inst.name in
      let update_lat = ref 0.0 in
      pending :=
        Some
          ( Protocol.Solve { session = name },
            fun r lat ->
              st.solves <- lat :: st.solves;
              st.by_role <- (role, !update_lat +. lat) :: st.by_role;
              outcome name (Result.bind (values_of r) (Verify.check ts.exp.(state))) );
      Some
        ( Protocol.Update { session = name; script = Inst.update_script ts.t ~touch },
          fun r lat ->
            update_lat := lat;
            st.updates <- lat :: st.updates;
            outcome name
              (match r with
               | Protocol.Updated { applied; _ } when applied = List.length ts.t.Inst.delta -> Ok ()
               | Protocol.Error { message; _ } -> Error ("server error: " ^ message)
               | _ -> Error "unexpected reply to update") )

let solve_query (i : Inst.instance) =
  Protocol.Solve_query
    { query = i.query; db = i.db; agg = i.agg; tau = Some i.tau; fallback = i.fallback;
      kc_node_budget = None }

let query_client queries st =
  let qs = Array.of_list queries and k = ref 0 in
  fun () ->
    let (i : Inst.instance), e = qs.(!k mod Array.length qs) in
    incr k;
    ( solve_query i,
      fun r lat ->
        st.by_query <- ("query " ^ i.name, lat) :: st.by_query;
        outcome i.name (Result.bind (values_of r) (Verify.check e)) )

let request c req =
  Proc.send c (Protocol.encode_request req);
  Result.bind (Proc.recv c ~timeout:op_timeout) Protocol.decode_response

(* Starts a server, opens every tenant and warms up (one solve per
   tenant and per query); returns the server and one connection. *)
let server_setup sv tenants queries =
  fresh_dir state_dir;
  let pid =
    Proc.spawn shapctl
      [ "serve"; "--socket"; socket; "--max-sessions"; string_of_int sv.max_sessions;
        "--state-dir"; state_dir; "--jobs"; "1"; "--quiet" ]
      ~stdout:Unix.stderr
  in
  let c = Proc.connect ~timeout:30.0 socket in
  (match request c Protocol.Ping with
   | Ok Protocol.Pong -> ()
   | _ -> failwith "the server does not answer ping");
  Array.iter
    (fun ts ->
      match request c (Protocol.Open { session = ts.t.Inst.tname; spec = spec ts.t.Inst.inst }) with
      | Ok (Protocol.Opened _) -> ()
      | Ok (Protocol.Error { message; _ }) -> failwith ("open: " ^ message)
      | _ -> failwith "open: unexpected reply")
    tenants;
  Array.iter
    (fun ts ->
      outcome ts.t.Inst.tname
        (Result.bind (request c (Protocol.Solve { session = ts.t.Inst.tname })) (fun r ->
             Result.bind (values_of r) (Verify.check ts.exp.(0)))))
    tenants;
  List.iter
    (fun ((i : Inst.instance), e) ->
      outcome i.name
        (Result.bind (request c (solve_query i)) (fun r ->
             Result.bind (values_of r) (Verify.check e))))
    queries;
  (pid, c)

let server_stats c =
  match request c (Protocol.Stats { session = None }) with
  | Ok (Protocol.Server_stats { evictions; restores; _ }) -> (evictions, restores)
  | _ -> failwith "stats: unexpected reply"

(* Shuts the server down; its peak resident set in KiB. *)
let server_stop (pid, c) =
  (match request c Protocol.Shutdown with
   | Ok Protocol.Shutting_down -> ()
   | _ -> Printf.eprintf "perfbench: the server did not acknowledge shutdown\n%!");
  Proc.close c;
  let code, rss = Proc.reap_within ~grace:20.0 pid in
  if code <> 0 then outcome "server" (Error (sprintf "server exited with %d" code));
  rss

let new_stream () = { updates = []; solves = []; by_role = []; by_query = [] }

let connections sv = if sv.queries then 2 else 1

(* Sends [req] on [c]; the time it went out. *)
let send ~record c req =
  let line = Protocol.encode_request req in
  record `Request line;
  let t = now () in
  Proc.send c line;
  t

(* Waits for one reply on each of [conns]: each reply line with the time
   it arrived, in the order of [conns]. *)
let await conns =
  let got = Hashtbl.create 2 in
  let waiting () = List.filter (fun c -> not (Hashtbl.mem got c.Proc.fd)) conns in
  let rec loop () =
    List.iter
      (fun c -> Option.iter (fun l -> Hashtbl.replace got c.Proc.fd (l, now ())) (Proc.take_line c))
      (waiting ());
    match waiting () with
    | [] -> ()
    | cs ->
      let ready = Proc.select_retry (List.map (fun c -> c.Proc.fd) cs) op_timeout in
      if ready = [] then begin
        outcome "server" (Error "timed out");
        failwith "the server stopped answering"
      end;
      List.iter
        (fun c ->
          if List.mem c.Proc.fd ready && not (Proc.fill c) then
            failwith "the server closed the connection")
        cs;
      loop ()
  in
  loop ();
  List.map (fun c -> Hashtbl.find got c.Proc.fd) conns

let handle ~record k (line, arrived) sent =
  record `Response line;
  match Protocol.decode_response line with
  | Ok r -> k r (arrived -. sent)
  | Error msg -> outcome "reply" (Error msg)

(* How long a query may run before the step that contends with it goes
   out: ample for the server to wake and read the query. *)
let head_start = 0.01

(* The interactive loop, one step at a time until [continue] says stop:
   an update, then a solve, on one connection. With [sv.queries] a
   stateless query goes out first on a second connection and the step's
   update follows once the server is busy with it, so every step waits
   behind one whole query: the server's single loop blocks head of
   line. Request and reply lines go to [record]. *)
let serve_run ?cal sv tenants queries ~continue ?(record = fun _ _ -> ()) server =
  let st = new_stream () in
  let _, c = server in
  let next_step = interactive ?cal tenants ~pick:(Inst.schedule ~seed) ~continue st in
  let contender =
    if sv.queries then Some (Proc.connect ~timeout:5.0 socket, query_client queries st) else None
  in
  let t0 = now () in
  let rec loop () =
    match next_step () with
    | None -> ()
    | Some (update, on_update) ->
      let query =
        Option.map
          (fun (qc, next_query) ->
            let q, on_query = next_query () in
            let sent = send ~record qc q in
            Unix.sleepf head_start;
            (qc, sent, on_query))
          contender
      in
      let sent = send ~record c update in
      (match query with
       | None -> List.iter (fun r -> handle ~record on_update r sent) (await [ c ])
       | Some (qc, qsent, on_query) -> (
         match await [ qc; c ] with
         | [ q; u ] ->
           handle ~record on_query q qsent;
           handle ~record on_update u sent
         | _ -> assert false));
      let solve, on_solve = Option.get (next_step ()) in
      let sent = send ~record c solve in
      List.iter (fun r -> handle ~record on_solve r sent) (await [ c ]);
      loop ()
  in
  loop ();
  let elapsed = now () -. t0 in
  Option.iter (fun (qc, _) -> Proc.close qc) contender;
  (st, elapsed)

let emit_latencies st =
  let lat name xs note =
    if xs <> [] then begin
      emit (name ^ "_p50_s") "s" (List.length xs) (pct xs 0.5) ~note;
      emit (name ^ "_p90_s") "s" (List.length xs) (pct xs 0.9)
    end
  in
  lat "update" st.updates "SHAPWIRE update, send to reply";
  lat "solve" st.solves "session solve, send to reply";
  lat "query" (List.map snd st.by_query) "stateless solve_query, send to reply"

let serve_measure sv tenants queries =
  let setup_cal = Calib.create () in
  let setups =
    timed_setups setup_cal (fun r ->
        let s = server_setup sv tenants queries in
        if r < setup_reps - 1 then ignore (server_stop s);
        s)
  in
  let server = snd (List.nth setups (setup_reps - 1)) in
  (* Every setup replays the same touches: restart the update streams. *)
  Array.iter (fun ts -> ts.touch <- 0) tenants;
  let cal = Calib.create () in
  let deadline = now () +. float_of_int seconds in
  let continue () = now () < deadline in
  let st, elapsed =
    serve_run ~cal sv tenants queries ~continue server
  in
  let ev, rs = server_stats (snd server) in
  let rss = server_stop server in
  let busy = elapsed -. Calib.total cal in
  emit_timings ~setups ~setup_cal ~cal
    ~classes:(by_class (List.rev st.by_role) @ by_class (List.rev st.by_query))
    ~busy
    (if sv.queries then "interactive steps (update then solve) and stateless queries"
     else "interactive steps (update then solve)");
  emit "peak_rss_mb" "MB" 1 (float_of_int rss /. 1024.0) ~note:"the server process";
  emit_latencies st;
  info "server totals: %d evictions, %d restores (set-up included)" ev rs

(* ------------------------------------------------------------------ *)
(* In-process replay of a server workload (traced run)                 *)
(* ------------------------------------------------------------------ *)

type replay = {
  mutable service : float list;  (** per interactive request, wire order *)
  mutable restores : int;
  mutable games_computed : int;
  mutable games_reused : int;
}

(* The interactive stream of the wire run, through a Registry in this
   process: the same opens, warm-up, tenant choices and scripts. *)
let replay_sessions sv tenants (p : pass) =
  let rp = { service = []; restores = 0; games_computed = 0; games_reused = 0 } in
  let dir = Filename.concat work "replay" in
  fresh_dir dir;
  let reg = get "registry" (Registry.create ~state_dir:dir ~max_live:sv.max_sessions ()) in
  Array.iter (fun ts -> ignore (get "open" (Registry.open_session reg ts.t.Inst.tname (spec ts.t.Inst.inst)))) tenants;
  let with_s name f = get name (Registry.with_session reg name (fun _ s -> Ok (f s))) in
  Array.iter (fun ts -> ignore (with_s ts.t.Inst.tname Session.shapley_all)) tenants;
  Array.iter (fun ts -> ts.touch <- 0) tenants;
  (* Session statistics restart with each restored session object. *)
  let seen : (string, Session.t * Session.stats) Hashtbl.t = Hashtbl.create 8 in
  let account name s =
    let now_stats = Session.stats s in
    let base =
      match Hashtbl.find_opt seen name with
      | Some (s', b) when s' == s -> b
      | _ ->
        { Session.steps = 0; games_computed = 0; games_reused = 0; full_recomputes = 0;
          tables = Memo.no_stats }
    in
    rp.games_computed <- rp.games_computed + now_stats.Session.games_computed - base.Session.games_computed;
    rp.games_reused <- rp.games_reused + now_stats.Session.games_reused - base.Session.games_reused;
    p.memo_hits <- p.memo_hits + now_stats.Session.tables.Memo.hits - base.Session.tables.Memo.hits;
    p.memo_misses <- p.memo_misses + now_stats.Session.tables.Memo.misses - base.Session.tables.Memo.misses;
    Hashtbl.replace seen name (s, now_stats)
  in
  let pick = Inst.schedule ~seed in
  for k = 0 to traced_steps - 1 do
    Trace.op := k;
    Trace.reset_counters ();
    let ts = tenants.(pick ()) in
    let name = ts.t.Inst.tname and touch = ts.touch in
    ts.touch <- touch + 1;
    let state = if touch mod 2 = 0 then 1 else 0 in
    Trace.span "op" (fun () ->
        let restore =
          if List.assoc name (Registry.sessions reg) then 0.0
          else begin
            rp.restores <- rp.restores + 1;
            Trace.span "registry.restore" (fun () -> ignore (with_s name ignore));
            let d = Trace.last_duration () in
            let text = with_s name (fun s -> Api.render_database (Session.database s)) in
            ignore (Trace.span "parse.query" (fun () -> Api.parse_query ts.t.Inst.inst.Inst.query));
            ignore (Trace.span "parse.db" (fun () -> Api.parse_database_text text));
            d
          end
        in
        let script = Inst.update_script ts.t ~touch in
        ignore (Trace.span "session.apply" (fun () -> with_s name (fun s -> Api.apply_script s script)));
        rp.service <- (restore +. Trace.last_duration ()) :: rp.service;
        let values = Trace.span "session.read" (fun () -> with_s name Session.shapley_all) in
        rp.service <- Trace.last_duration () :: rp.service;
        outcome name (Verify.check ts.exp.(state) (Verify.render_values values));
        with_s name (fun s -> account name s);
        ignore
          (Trace.span "eval.answers" (fun () ->
               with_s name (fun s -> Eval.answers (Session.query s).Agg_query.query (Session.database s)))));
    Trace.add p.counters (Trace.read_counters ())
  done;
  rp.service <- List.rev rp.service;
  rp

let serve_traced sv tenants queries =
  (* The wire run: a fixed number of steps and queries. *)
  let server = server_setup sv tenants queries in
  Array.iter (fun ts -> ts.touch <- 0) tenants;
  let ev0, rs0 = server_stats (snd server) in
  let lines = ref [] in
  let record kind line = lines := (kind, line) :: !lines in
  let steps_left = ref traced_steps in
  let countdown () = if !steps_left > 0 then (decr steps_left; true) else false in
  let st, _ =
    serve_run sv tenants queries ~continue:countdown ~record server
  in
  let ev1, rs1 = server_stats (snd server) in
  ignore (server_stop server);
  let lines = List.rev !lines in
  (* In-process: the same session stream, then each query once. *)
  let rp = ref None in
  let p =
    traced_passes (fun p ->
        let r = replay_sessions sv tenants p in
        if Option.is_none !rp then rp := Some r;
        List.iteri (fun k q -> inproc_solve p (traced_steps + k) q) queries)
  in
  let rp = Option.get !rp in
  emit_counters p;
  emit_span_totals
    [ "parse.query"; "parse.db"; "strategy.plan"; "eval.answers"; "solver.solve"; "lineage.extract";
      "lineage.events"; "session.apply"; "session.read"; "registry.restore" ];
  emit "session.games_computed" "count" 1 (float_of_int rp.games_computed);
  emit "session.reuse_ratio" "ratio" 1 (ratio rp.games_reused (rp.games_computed + rp.games_reused))
    ~note:"Sum tenants; the Max engine reuses through memo tables";
  (* Wire-side: the recorded lines. *)
  let reqs = List.filter_map (function `Request, l -> Some l | _ -> None) lines in
  let resps = List.filter_map (function `Response, l -> Some l | _ -> None) lines in
  let decoded_reqs = List.filter_map (fun l -> Result.to_option (Protocol.decode_request l)) reqs in
  let decoded_resps = List.filter_map (fun l -> Result.to_option (Protocol.decode_response l)) resps in
  let time_all f xs = time_median 5 (fun () -> List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs) in
  emit "protocol.decode_s" "s" (List.length lines)
    (time_all Protocol.decode_request reqs +. time_all Protocol.decode_response resps)
    ~note:"every recorded request and reply line, median of 5";
  emit "protocol.encode_s" "s" (List.length lines)
    (time_all Protocol.encode_request decoded_reqs +. time_all Protocol.encode_response decoded_resps)
    ~note:"re-encoding the decoded lines, median of 5";
  emit "wire.response_bytes" "bytes" (List.length resps)
    (float_of_int (List.fold_left (fun acc l -> acc + String.length l + 1) 0 resps));
  let touches = 2 * traced_steps in
  emit "registry.evictions" "count" 1 (float_of_int (ev1 - ev0)) ~note:"server stats op";
  emit "registry.restores" "count" 1 (float_of_int (rs1 - rs0)) ~note:"server stats op";
  emit "registry.restore_share" "ratio" touches (ratio (rs1 - rs0) touches)
    ~note:"restores ÷ session requests";
  if rp.restores <> rs1 - rs0 then
    info "note: the in-process replay restored %d times, the server %d" rp.restores (rs1 - rs0);
  (* Wire latency minus in-process service time, request by request. *)
  let wire = List.rev (List.concat (List.map2 (fun u s -> [ s; u ]) st.updates st.solves)) in
  let queue = List.map2 ( -. ) wire rp.service in
  emit "server.queue_s" "s" (List.length queue) (median queue)
    ~note:"derived: median of (wire latency − in-process service time)";
  emit "shapctl.overhead_s" "s" 0 0.0 ~note:"no shapctl solve process on this workload";
  let r, n = regret queries in
  emit "strategy.regret" "ratio" n r ~note:"1 when no instance offers a choice"

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* The metrics of the result line: [end_to_end] with tracing off,
   [per_layer] with it on. A layer that does no work on a workload
   reports 0 there. *)
let end_to_end =
  [ ("setup_s", "s"); ("op_p50_gm_s", "s"); ("op_p90_s", "s"); ("ops_per_s", "1/s");
    ("ok_ratio", "ratio"); ("peak_rss_mb", "MB") ]

let per_layer =
  List.map (fun n -> (n, "s"))
    [ "parse.query_s"; "parse.db_s"; "shapctl.overhead_s"; "strategy.plan_s"; "eval.answers_s";
      "solver.solve_s"; "lineage.extract_s"; "lineage.events_s"; "ddnnf.compile_cpu_s";
      "ddnnf.wmc_cpu_s"; "naive.solve_s"; "session.apply_s"; "session.read_s"; "protocol.encode_s";
      "protocol.decode_s"; "registry.restore_s"; "server.queue_s" ]
  @ List.map (fun n -> (n, "count"))
      [ "strategy.route_count.dp"; "strategy.route_count.kc"; "strategy.route_count.naive";
        "database.index_builds"; "database.index_probes"; "database.rel_scans"; "plan.compiles";
        "engine.nodes"; "engine.leaves"; "engine.merges"; "engine.combines"; "tables.convolve";
        "tables.convolve_small"; "tables.convolve_ntt"; "tables.weighted_sums";
        "bigint.mul_schoolbook"; "bigint.mul_karatsuba"; "bigint.mul_small"; "bigint.acc_mul";
        "bigint.divmod"; "bigint.gcd"; "bigint.promotions"; "ddnnf.nodes"; "ddnnf.wmc_passes";
        "ddnnf.budget_aborts"; "session.games_computed"; "registry.evictions"; "registry.restores";
        "counters.mismatches" ]
  @ [ ("wire.response_bytes", "bytes") ]
  @ List.map (fun n -> (n, "ratio"))
      [ "strategy.regret"; "memo.hit_ratio"; "tables.small_ratio"; "ddnnf.cache_hit_ratio";
        "session.reuse_ratio"; "registry.restore_share"; "trace.overhead_ratio" ]

(* Prints every metric, then the result line. *)
let report () =
  let wanted = if traced then per_layer else end_to_end in
  List.iter
    (fun (n, u) ->
      if not (List.exists (fun m -> m.name = n) !metrics) then
        if traced then emit n u 0 0.0 ~note:"no work on this workload"
        else die "internal error: metric %s was not measured" n)
    wanted;
  List.iter
    (fun m -> info "%-28s %16.9g %-6s n=%-6d %s" m.name m.value m.unit_ m.samples m.note)
    (List.rev !metrics);
  let num v = if Float.is_finite v then sprintf "%.17g" v else "0" in
  let value n = (List.find (fun m -> m.name = n) !metrics).value in
  let body =
    String.concat ", "
      (List.map (fun (n, u) -> sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num (value n)) u) wanted)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (outcomes.Verify.failed = 0) (max 1 outcomes.Verify.attempted) outcomes.Verify.failed body

(* Longest a run may take; past it the run stops, children included. *)
let watchdog_s = 170

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> die "stopped by a signal")))
    [ Sys.sigterm; Sys.sigint; Sys.sigalrm ];
  ignore (Unix.alarm watchdog_s);
  if not (Sys.file_exists shapctl) then die "%s is missing: build the repository first" shapctl;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  fresh_dir work;
  at_exit (fun () ->
      Proc.stop_all ();
      rm_rf work);
  let _, why, kind = List.find (fun (n, _, _) -> n = wname) workloads in
  info "workload %s, seed %d, %s run" wname seed (if traced then "traced" else "end-to-end");
  info "why: %s" why;
  (* One processor for the benchmark, the program and the calibration:
     the calibration units then time the processor the operations run
     on, and no operation waits for the scheduler to move it. *)
  (match Proc.pin_cpu () with
   | -1 -> info "not pinned: the system does not allow it"
   | cpu -> info "pinned to processor %d, with every child" cpu);
  let t0 = now () in
  (match kind with
   | Cli menu ->
     let pool = Inst.pool ~seed ~variants menu in
     let expected = Proc.in_child (fun () -> List.map Verify.expect pool) in
     info "sizes: %d instances (%d menu entries x %d), 1 client, 1 process at a time"
       (List.length pool) (List.length menu) variants;
     List.iter2
       (fun (i : Inst.instance) (e : Verify.expected) ->
         info "  %-16s %3d players, %3d facts" i.name (List.length e.values)
           (List.length (String.split_on_char '\n' i.db) - 1))
       pool expected;
     info "references: %.3f s" (now () -. t0);
     if traced then cli_traced (List.combine pool expected)
     else cli_measure menu expected
   | Serve sv ->
     let tenants, queries =
       Proc.in_child (fun () -> (tenant_states sv, if sv.queries then query_pool () else []))
     in
     info "sizes: %d tenants (%d hot, %d cold), max-sessions %d, %d connection(s), %d KC queries \
           in rotation"
       (Array.length tenants) Inst.hot Inst.cold sv.max_sessions (connections sv)
       (List.length queries);
     Array.iter
       (fun ts ->
         info "  %s %-10s %3d players, %3d facts, %d facts per update" ts.t.Inst.tname
           ts.t.Inst.inst.Inst.name (List.length ts.exp.(0).Verify.values)
           (List.length (String.split_on_char '\n' ts.t.Inst.inst.Inst.db) - 1)
           (List.length ts.t.Inst.delta))
       tenants;
     info "references: %.3f s" (now () -. t0);
     if traced then serve_traced sv tenants queries else serve_measure sv tenants queries);
  if not traced then emit "ok_ratio" "ratio" outcomes.Verify.attempted (1.0 -. ratio outcomes.Verify.failed outcomes.Verify.attempted)
      ~note:(sprintf "failed_ratio = %d/%d" outcomes.Verify.failed outcomes.Verify.attempted)
  else Trace.write (Filename.concat out_dir (sprintf "spans-%s-%d.jsonl" wname seed));
  report ()
