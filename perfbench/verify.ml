(* Answer checks. Every Shapley vector the benchmark receives, from a
   [shapctl solve] process or a SHAPWIRE reply, must

   - satisfy the efficiency axiom: the values sum to A(D) − A(D_exo),
     the aggregate over the full database minus the aggregate over its
     exogenous facts alone;
   - be bit-identical (fact strings and exact rationals) to a reference
     vector computed in-process at set-up.

   At set-up, references of instances with at most [naive_cap] players
   are also cross-checked against naive enumeration. *)

module Api = Aggshap_api.Api
module Q = Aggshap_arith.Rational
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Naive = Aggshap_core.Naive

type expected = {
  values : (string * string) list;  (** fact and exact value, endogenous order *)
  total : Q.t;  (** what the values must sum to *)
}

let naive_cap = 14

let get what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

let agg_query (i : Inst.instance) =
  let q = get i.name (Api.parse_query i.query) in
  get i.name (Api.make_agg_query ~agg:i.agg ~tau:(Some i.tau) q)

let fallback (i : Inst.instance) =
  fst (get i.name (Api.parse_fallback (Option.value i.fallback ~default:"naive")))

let exogenous_only db =
  Database.of_facts ~provenance:Database.Exogenous (Database.exogenous db)

let efficiency_total a db =
  Q.sub (get "eval" (Api.eval a db)) (get "eval" (Api.eval a (exogenous_only db)))

let render_values values = List.map (fun (f, v) -> (Fact.to_string f, Q.to_string v)) values

let check (e : expected) got =
  match List.map (fun (_, v) -> Q.of_string v) got with
  | exception Invalid_argument msg -> Error ("unparsable value: " ^ msg)
  | parsed ->
    let sum = Q.sum parsed in
    if not (Q.equal sum e.total) then
      Error
        (Printf.sprintf "efficiency axiom: values sum to %s, expected %s" (Q.to_string sum)
           (Q.to_string e.total))
    else if List.length got <> List.length e.values then
      Error
        (Printf.sprintf "%d values, expected %d" (List.length got) (List.length e.values))
    else
      match
        List.find_opt (fun (g, w) -> g <> w) (List.combine got e.values)
      with
      | Some ((f, v), (f', v')) ->
        Error (Printf.sprintf "%s = %s differs from the reference %s = %s" f v f' v')
      | None -> Ok ()

(* Operations attempted and failed. An operation fails when it errors,
   times out, or returns values that fail [check]. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t what result =
  t.attempted <- t.attempted + 1;
  match result with
  | Ok () -> ()
  | Error msg ->
    t.failed <- t.failed + 1;
    if t.failed <= 5 then Printf.eprintf "perfbench: %s: %s\n%!" what msg

(* The reference for one database from its exact values, after checking
   them against the efficiency axiom and (when small) naive enumeration,
   so a wrong reference stops the benchmark. *)
let expected_of name a db values =
  let e = { values = render_values values; total = efficiency_total a db } in
  (match check e e.values with
   | Ok () -> ()
   | Error msg -> failwith (Printf.sprintf "%s: reference fails its own check: %s" name msg));
  if Database.endo_size db <= naive_cap
     && render_values (Naive.shapley_all a db) <> e.values
  then failwith (name ^ ": reference disagrees with naive enumeration");
  e

(* The reference from the in-process solver with one domain. *)
let expect_db (i : Inst.instance) a db =
  let r = get i.name (Api.shapley_all ~fallback:(fallback i) ~jobs:1 a db) in
  expected_of i.name a db
    (List.map
       (fun (f, o) ->
         match o with
         | Aggshap_core.Solver.Exact v -> (f, v)
         | Aggshap_core.Solver.Estimate _ -> failwith (i.name ^ ": estimate from an exact tier"))
       r.Api.values)

let expect (i : Inst.instance) = expect_db i (agg_query i) (get i.name (Api.parse_database_text i.db))

(* The fact/value lines of [shapctl solve] output: a class/algorithm
   header, then ["FACT VALUE (~ FLOAT)"] per endogenous fact. *)
let parse_solve_output out =
  let value_line l =
    match String.rindex_opt l '(' with
    | Some k when k >= 2 && String.sub l (k - 1) 2 = " (" ->
      let body = String.trim (String.sub l 0 (k - 1)) in
      (match String.rindex_opt body ' ' with
       | Some s ->
         Some (String.trim (String.sub body 0 s), String.sub body (s + 1) (String.length body - s - 1))
       | None -> None)
    | _ -> None
  in
  match String.split_on_char '\n' out with
  | header :: rest when String.starts_with ~prefix:"class: " header ->
    let lines = List.filter (fun l -> l <> "") rest in
    let values = List.filter_map value_line lines in
    if List.length values = List.length lines then Ok values
    else Error "unexpected line in solve output"
  | _ -> Error "solve output has no class/algorithm header"
