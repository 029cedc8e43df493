module Q = Aggshap_arith.Rational
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Value = Aggshap_relational.Value
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Game = Aggshap_core.Game
module Naive = Aggshap_core.Naive
module Solver = Aggshap_core.Solver
module Monte_carlo = Aggshap_core.Monte_carlo

module Eval = Aggshap_cq.Eval
module Lineage = Aggshap_lineage.Lineage

(* The reference aggregate evaluates through the scan evaluator: the
   system under test goes through the planned/indexed evaluator, so
   every trial doubles as a differential test of the two evaluation
   paths — and an index-maintenance fault ([`Stale_index]) cannot
   corrupt both arms the same way. Scanning also builds no index on
   the trial database that every coalition database would inherit. *)
let reference_eval a = Agg_query.eval_via Eval.Legacy.visit_homomorphisms a

type failure = {
  check : string;
  detail : string;
}

let failure_to_string f = Printf.sprintf "%s: %s" f.check f.detail

let fail check fmt = Printf.ksprintf (fun detail -> Some { check; detail }) fmt

(* Run checks in order, stopping at the first failure. *)
let rec first_failure = function
  | [] -> None
  | check :: rest -> (
    match check () with None -> first_failure rest | some -> some)

let exact = function
  | Solver.Exact v -> v
  | Solver.Estimate _ -> invalid_arg "Oracle: expected an exact outcome"

let exact_results results = List.map (fun (f, o) -> (f, exact o)) results

let same_exact_results name reference candidate =
  if
    List.length reference = List.length candidate
    && List.for_all2
         (fun (f1, v1) (f2, v2) -> Fact.equal f1 f2 && Q.equal v1 v2)
         reference candidate
  then None
  else
    let show rs =
      String.concat ", "
        (List.map (fun (f, v) -> Fact.to_string f ^ "=" ^ Q.to_string v) rs)
    in
    fail name "got [%s], expected [%s]" (show candidate) (show reference)

(* A relation name foreign to the trial, for the null-player check. *)
let fresh_relation t =
  let used = Aggshap_cq.Cq.relations t.Trial.query @ Database.relations t.Trial.db in
  let rec go i =
    let name = if i = 0 then "ZzNoise" else Printf.sprintf "ZzNoise%d" i in
    if List.mem name used then go (i + 1) else name
  in
  go 0

(* u(C ∪ i) = u(C ∪ j) for every coalition C avoiding both players. *)
let symmetric_players (g : Game.t) i j =
  let bi = 1 lsl i and bj = 1 lsl j in
  let ok = ref true in
  for mask = 0 to (1 lsl g.Game.n) - 1 do
    if mask land bi = 0 && mask land bj = 0 && !ok then
      if not (Q.equal (g.Game.utility (mask lor bi)) (g.Game.utility (mask lor bj)))
      then ok := false
  done;
  !ok

let run_checks ~par_jobs ~kc_always ~auto_always (t : Trial.t) =
  let a = Trial.agg_query t in
  let db = t.db in
  let endo = Database.endogenous db in
  let n = List.length endo in
  if n = 0 then begin
    (* No game to play; still make sure evaluation does not crash. *)
    ignore (Agg_query.eval a db);
    None
  end
  else begin
    (* Every utility evaluation of the naive game — the reference for
       agreement, efficiency and symmetry — goes through the scan
       evaluator, whatever check triggers it. *)
    let players, game = Naive.game_via (reference_eval a) db in
    let reference = Game.shapley_all game in
    let within = Solver.within_frontier a.Agg_query.alpha a.Agg_query.query in
    let solve ?(a = a) ?(db = db) f =
      exact (fst (Solver.shapley ~fallback:`Naive a db f))
    in
    (* The per-fact system-under-test values: the DP within the frontier,
       the fallback plumbing outside it. *)
    let sut = lazy (Array.map (fun f -> solve f) players) in
    let check_oracle_sanity () =
      (* The oracle must satisfy efficiency by itself before it is
         entitled to judge anybody else. *)
      let gap = Game.efficiency_gap game in
      if Q.is_zero gap then None
      else fail "oracle-efficiency" "Game.efficiency_gap = %s on the naive game" (Q.to_string gap)
    in
    let check_agreement () =
      let rec go i =
        if i >= Array.length players then None
        else
          let v = (Lazy.force sut).(i) in
          if Q.equal v reference.(i) then go (i + 1)
          else
            fail
              (if within then "dp-vs-naive" else "fallback-vs-naive")
              "fact %s: solver=%s, naive=%s"
              (Fact.to_string players.(i))
              (Q.to_string v) (Q.to_string reference.(i))
      in
      go 0
    in
    let check_efficiency () =
      let total = Array.fold_left Q.add Q.zero (Lazy.force sut) in
      let exo = Database.filter (fun _ p -> p = Database.Exogenous) db in
      let expected = Q.sub (reference_eval a db) (reference_eval a exo) in
      if Q.equal total expected then None
      else
        fail "efficiency" "Σφ = %s, v(N) − v(∅) = %s" (Q.to_string total)
          (Q.to_string expected)
    in
    let check_null_player () =
      (* A fact of a relation foreign to the query changes nothing: its
         own value is 0 and everybody else's value is untouched. Only
         meaningful against the DP — outside the frontier the solver and
         the reference are the same enumeration. *)
      if (not within) || n >= Game.max_players then None
      else begin
        let noise = Fact.make (fresh_relation t) [ Value.Int 0 ] in
        let db' = Database.add noise db in
        let v_noise = solve ~db:db' noise in
        if not (Q.is_zero v_noise) then
          fail "null-player" "noise fact %s got value %s" (Fact.to_string noise)
            (Q.to_string v_noise)
        else
          let rec go i =
            if i >= Array.length players then None
            else
              let v' = solve ~db:db' players.(i) in
              if Q.equal v' (Lazy.force sut).(i) then go (i + 1)
              else
                fail "null-player" "adding %s moved %s from %s to %s"
                  (Fact.to_string noise)
                  (Fact.to_string players.(i))
                  (Q.to_string (Lazy.force sut).(i))
                  (Q.to_string v')
          in
          go 0
      end
    in
    let check_symmetry () =
      if not within then None
      else begin
      let failure = ref None in
      for i = 0 to Array.length players - 1 do
        for j = i + 1 to Array.length players - 1 do
          if !failure = None && symmetric_players game i j then begin
            let vi = (Lazy.force sut).(i) and vj = (Lazy.force sut).(j) in
            if not (Q.equal vi vj) then
              failure :=
                fail "symmetry" "interchangeable facts %s (%s) and %s (%s)"
                  (Fact.to_string players.(i))
                  (Q.to_string vi)
                  (Fact.to_string players.(j))
                  (Q.to_string vj)
          end
        done
      done;
      !failure
      end
    in
    let check_sum_linearity () =
      (* Sum is linear in τ: φ computed for τ + 1 must equal the sum of
         the values computed for τ and for the constant 1 separately. *)
      if (not within) || a.Agg_query.alpha <> Aggregate.Sum then None
      else begin
        let rel = Trial.tau_rel t.tau in
        let tau1 = Trial.tau_to_value_fn t.tau in
        let tau2 = Value_fn.const ~rel Q.one in
        let tau12 =
          Value_fn.custom ~rel ~descr:"tau+1" (fun args ->
              Q.add (Value_fn.apply tau1 args) (Value_fn.apply tau2 args))
        in
        let a1 = a in
        let a2 = Agg_query.make Aggregate.Sum tau2 t.query in
        let a12 = Agg_query.make Aggregate.Sum tau12 t.query in
        let rec go i =
          if i >= Array.length players then None
          else
            let f = players.(i) in
            let v1 = solve ~a:a1 f and v2 = solve ~a:a2 f and v12 = solve ~a:a12 f in
            if Q.equal v12 (Q.add v1 v2) then go (i + 1)
            else
              fail "sum-linearity" "fact %s: φ(τ+1)=%s but φ(τ)+φ(1)=%s+%s"
                (Fact.to_string f) (Q.to_string v12) (Q.to_string v1)
                (Q.to_string v2)
        in
        go 0
      end
    in
    let per_fact_list =
      lazy
        (List.map2 (fun f v -> (f, v)) (Array.to_list players)
           (Array.to_list (Lazy.force sut)))
    in
    let batch ~jobs ~cache () =
      exact_results (fst (Solver.shapley_all ~fallback:`Naive ~jobs ~cache a db))
    in
    let check_engine_equivalence () =
      first_failure
        [ (fun () ->
            same_exact_results "batch-vs-per-fact(jobs=1,cache=on)"
              (Lazy.force per_fact_list) (batch ~jobs:1 ~cache:true ()));
          (fun () ->
            same_exact_results "batch-vs-per-fact(jobs=1,cache=off)"
              (Lazy.force per_fact_list) (batch ~jobs:1 ~cache:false ()));
          (fun () ->
            if par_jobs <= 1 then None
            else
              same_exact_results
                (Printf.sprintf "batch-vs-per-fact(jobs=%d,cache=on)" par_jobs)
                (Lazy.force per_fact_list)
                (batch ~jobs:par_jobs ~cache:true ()));
        ]
    in
    let check_knowledge_compilation () =
      (* The knowledge-compilation tier must agree with the naive
         reference to the last bit wherever it applies: on every trial
         outside the frontier with an event-decomposable aggregate
         (through the solver's dispatch, exactly as users reach it), and
         — under [kc_always] — inside the frontier too, where the
         lineage pipeline is driven directly since the solver would pick
         the polynomial DP. *)
      if not (Lineage.supports a.Agg_query.alpha) then None
      else if not within then
        same_exact_results "kc-vs-naive" (Lazy.force per_fact_list)
          (exact_results
             (fst (Solver.shapley_all ~fallback:`Knowledge_compilation ~jobs:1 a db)))
      else if kc_always then
        same_exact_results "kc-vs-naive" (Lazy.force per_fact_list)
          (Lineage.shapley_all a db)
      else None
    in
    let check_auto () =
      (* The solve planner never trades exactness for speed: whatever
         route [`Auto] picks — the frontier DP, knowledge compilation,
         or naive enumeration — must be bit-identical to the naive
         reference. Always checked outside the frontier (where the
         planner actually chooses); [auto_always] extends it to every
         trial, DP dispatch included. *)
      if within && not auto_always then None
      else
        same_exact_results "auto-vs-naive" (Lazy.force per_fact_list)
          (exact_results
             (fst (Solver.shapley_all ~fallback:`Auto ~jobs:1 a db)))
    in
    let check_fail_up_front () =
      if within then None
      else begin
        (* `Fail must raise before fanning out, and report no partial
           results. *)
        match Solver.shapley_all ~fallback:`Fail ~jobs:1 a db with
        | _ -> fail "fail-fan-out" "shapley_all ~fallback:`Fail returned instead of raising"
        | exception Invalid_argument _ -> None
      end
    in
    let mc_estimates ~jobs () =
      List.map
        (fun (f, o) ->
          match o with
          | Solver.Estimate e -> (f, e)
          | Solver.Exact _ -> invalid_arg "Oracle: expected an estimate")
        (fst
           (Solver.shapley_all ~fallback:(`Monte_carlo 16) ~mc_seed:t.seed ~jobs a db))
    in
    let same_estimates name reference candidate =
      if
        List.for_all2
          (fun (f1, (e1 : Monte_carlo.estimate)) (f2, e2) ->
            Fact.equal f1 f2 && e1.Monte_carlo.mean = e2.Monte_carlo.mean
            && e1.Monte_carlo.std_error = e2.Monte_carlo.std_error
            && e1.Monte_carlo.samples = e2.Monte_carlo.samples)
          reference candidate
      then None
      else fail name "seeded Monte-Carlo estimates differ between runs"
    in
    let check_mc_reproducible () =
      if within then None
      else begin
        let first = mc_estimates ~jobs:1 () in
        first_failure
          [ (fun () -> same_estimates "mc-seed-reproducible" first (mc_estimates ~jobs:1 ()));
            (fun () ->
              if par_jobs <= 1 then None
              else same_estimates "mc-seed-jobs-invariant" first (mc_estimates ~jobs:par_jobs ()));
          ]
      end
    in
    first_failure
      [ check_oracle_sanity; check_agreement; check_efficiency; check_null_player;
        check_symmetry; check_sum_linearity; check_engine_equivalence;
        check_knowledge_compilation; check_auto; check_fail_up_front;
        check_mc_reproducible ]
  end

let run ?(par_jobs = 2) ?(kc_always = false) ?(auto_always = false) t =
  let endo = Database.endo_size t.Trial.db in
  if endo > Game.max_players then
    fail "oracle-limit" "%d endogenous facts exceed the naive oracle's cap of %d" endo
      Game.max_players
  else
    try run_checks ~par_jobs ~kc_always ~auto_always t
    with e -> fail "exception" "%s" (Printexc.to_string e)

module Batch = Aggshap_core.Batch
module Session = Aggshap_incr.Session
module Update = Aggshap_incr.Update

(* Replay the op script through one live session, cross-checking every
   step against a from-scratch batch over an independently maintained
   copy of the database and query — so a session that mis-tracks its own
   state disagrees with the reference instead of dragging it along. *)
let run_update_checks (u : Utrial.t) =
  let t = u.Utrial.trial in
  let a = ref (Trial.agg_query t) in
  let db = ref t.Trial.db in
  let session = Session.open_ ~jobs:1 !a !db in
  let check_step step =
    (* The from-scratch reference solves a database rebuilt from the
       fact list: it shares no index cell (or index bug) with the
       session's incrementally maintained database. *)
    let fresh = Database.of_list (Database.fold (fun f p acc -> (f, p) :: acc) !db []) in
    let reference = fst (Batch.shapley_all ~jobs:1 !a fresh) in
    let got = Session.shapley_all session in
    same_exact_results (Printf.sprintf "session-vs-batch(step %d)" step) reference got
  in
  let rec go step = function
    | [] -> None
    | op :: rest -> (
      (match op with
       | Update.Insert (f, prov) -> db := Database.add ~provenance:prov f !db
       | Update.Delete f -> db := Database.remove f !db
       | Update.Set_tau (vf, _) ->
         a := Agg_query.make !a.Agg_query.alpha vf !a.Agg_query.query);
      Session.apply session op;
      match check_step step with
      | Some failure -> Some failure
      | None -> go (step + 1) rest)
  in
  (match check_step 0 with Some failure -> Some failure | None -> go 1 u.Utrial.ops)

let run_updates (u : Utrial.t) =
  try run_update_checks u
  with e -> fail "exception" "%s" (Printexc.to_string e)
