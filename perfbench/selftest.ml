(* The benchmark's answer checks: a correct vector passes; a perturbed
   value, a renamed fact or a missing fact counts as a failed operation,
   whether or not the perturbation keeps the efficiency sum. *)

open Perfbench_lib

let instance =
  { Inst.name = "selftest"; query = Inst.q_xyy; agg = "max"; tau = "id:R:0"; fallback = None;
    db = "R(1, 0)\nR(2, 0)\nR(3, 1)\nS(0)\nS(1) @exo\n" }

let expect_ok what r = match r with Ok () -> () | Error m -> failwith (what ^ ": " ^ m)

let expect_failed what r =
  let t = Verify.tally () in
  Verify.record t what r;
  if t.Verify.failed <> 1 || t.Verify.attempted <> 1 then
    failwith (what ^ ": a wrong answer was not counted as failed")

let () =
  let e = Verify.expect instance in
  let values = e.Verify.values in
  assert (List.length values = 4);
  expect_ok "reference" (Verify.check e values);
  let bump k delta =
    List.mapi
      (fun j (f, v) ->
        if j = k then
          (f, Aggshap_arith.Rational.(to_string (add (of_string v) (of_string delta))))
        else (f, v))
      values
  in
  (* Breaks the efficiency axiom. *)
  expect_failed "perturbed value" (Verify.check e (bump 0 "1/7"));
  (* Keeps the sum, so only the bit-identity check can catch it. *)
  let shifted = List.mapi (fun j fv -> if j = 1 then List.nth (bump 1 "-1/7") 1 else fv) (bump 0 "1/7") in
  expect_failed "sum-preserving perturbation" (Verify.check e shifted);
  expect_failed "renamed fact"
    (Verify.check e (List.map (fun (f, v) -> ((if f = "R(1, 0)" then "R(9, 0)" else f), v)) values));
  expect_failed "missing fact" (Verify.check e (List.tl values));
  expect_failed "unparsable value" (Verify.check e (List.map (fun (f, _) -> (f, "x")) values));
  (* The same checks through [shapctl solve]'s output format. *)
  let render vs =
    String.concat ""
      ("class: all-hierarchical; algorithm: min/max (a,k)-table DP\n"
      :: List.map (fun (f, v) -> Printf.sprintf "%-30s %s (~ 0.5)\n" f v) vs)
  in
  expect_ok "parsed output" (Result.bind (Verify.parse_solve_output (render values)) (Verify.check e));
  expect_failed "perturbed output"
    (Result.bind (Verify.parse_solve_output (render (bump 2 "1"))) (Verify.check e));
  expect_failed "truncated output" (Verify.parse_solve_output "R(1, 0) 1/2\n" |> Result.map ignore);
  print_endline "perfbench self-test: ok"
