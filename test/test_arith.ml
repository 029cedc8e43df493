(* Tests for the arbitrary-precision arithmetic substrate.

   Strategy: unit tests for edge cases, plus qcheck properties that
   cross-validate every operation against native-int arithmetic on small
   operands and against algebraic laws on large (string-built) operands. *)

module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module C = Aggshap_arith.Combinat
module Tables = Aggshap_core.Tables
module Fault = Aggshap_arith.Fault

let check_b msg expected actual =
  Alcotest.(check string) msg expected (B.to_string actual)

let check_q msg expected actual =
  Alcotest.(check string) msg expected (Q.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_bigint_basic () =
  check_b "zero" "0" B.zero;
  check_b "one" "1" B.one;
  check_b "minus one" "-1" B.minus_one;
  check_b "of_int 42" "42" (B.of_int 42);
  check_b "of_int -42" "-42" (B.of_int (-42));
  check_b "of_int max_int" (string_of_int max_int) (B.of_int max_int);
  check_b "of_int min_int" (string_of_int min_int) (B.of_int min_int);
  Alcotest.(check (option int)) "roundtrip max_int" (Some max_int)
    (B.to_int_opt (B.of_int max_int));
  Alcotest.(check (option int)) "roundtrip min_int" (Some min_int)
    (B.to_int_opt (B.of_int min_int));
  Alcotest.(check (option int)) "too big for int" None
    (B.to_int_opt (B.mul (B.of_int max_int) (B.of_int 4)))

let test_bigint_string_roundtrip () =
  let cases =
    [ "0"; "1"; "-1"; "999999999999999999999999999999";
      "-123456789012345678901234567890123456789";
      "1000000000000000000000000000000000000000000001" ]
  in
  List.iter (fun s -> check_b s s (B.of_string s)) cases;
  check_b "leading plus" "17" (B.of_string "+17");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "garbage" (Invalid_argument "Bigint.of_string: invalid character")
    (fun () -> ignore (B.of_string "12x4"))

(* Regression tests for the of_string audit: the parser must accept
   strictly [sign? digit+] and nothing else. Delegating chunks to
   [int_of_string] would quietly admit OCaml integer-literal syntax —
   radix prefixes, '_' separators, interior signs — on the short-string
   path. *)
let test_bigint_of_string_strict () =
  let rejects s =
    Alcotest.check_raises
      (Printf.sprintf "rejects %S" s)
      (Invalid_argument "Bigint.of_string: invalid character")
      (fun () -> ignore (B.of_string s))
  in
  List.iter rejects
    [ "0x10"; "0o7"; "0b101"; "1_000"; "1e5"; " 12"; "12 "; "+-5"; "--5";
      "12-3"; "1.5" ];
  (* Sign-only inputs have no digits at all (the "empty chunk"). *)
  Alcotest.check_raises "plus only" (Invalid_argument "Bigint.of_string: no digits")
    (fun () -> ignore (B.of_string "+"));
  Alcotest.check_raises "minus only" (Invalid_argument "Bigint.of_string: no digits")
    (fun () -> ignore (B.of_string "-"));
  (* The divide-and-conquer path must reject malformed input too, even
     with the bad character buried past the split point. *)
  rejects (String.make 400 '7' ^ "_" ^ String.make 399 '7');
  rejects (String.make 799 '7' ^ "x");
  (* Leading zeros are legal decimal on both paths. *)
  check_b "leading zeros short" "77" (B.of_string "0077");
  check_b "leading zeros long" (String.make 300 '7')
    (B.of_string (String.make 300 '0' ^ String.make 300 '7'))

let test_bigint_arith_large () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "987654321098765432109876543210" in
  check_b "add" "1111111110111111111011111111100" (B.add a b);
  check_b "sub" "-864197532086419753208641975320" (B.sub a b);
  check_b "mul" "121932631137021795226185032733622923332237463801111263526900"
    (B.mul a b);
  let q, r = B.divmod b a in
  check_b "div" "8" q;
  check_b "rem" "9000000000900000000090" r;
  (* divmod identity: b = q*a + r *)
  check_b "divmod identity" (B.to_string b) (B.add (B.mul q a) r)

let test_bigint_divmod_signs () =
  (* Truncated division: remainder carries the sign of the dividend. *)
  let dm a b =
    let q, r = B.divmod (B.of_int a) (B.of_int b) in
    (B.to_int_exn q, B.to_int_exn r)
  in
  Alcotest.(check (pair int int)) "7 / 2" (3, 1) (dm 7 2);
  Alcotest.(check (pair int int)) "-7 / 2" (-3, -1) (dm (-7) 2);
  Alcotest.(check (pair int int)) "7 / -2" (-3, 1) (dm 7 (-2));
  Alcotest.(check (pair int int)) "-7 / -2" (3, -1) (dm (-7) (-2));
  Alcotest.check_raises "division by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_bigint_pow_gcd () =
  check_b "2^100" "1267650600228229401496703205376" (B.pow B.two 100);
  check_b "x^0" "1" (B.pow (B.of_int 17) 0);
  check_b "0^0" "1" (B.pow B.zero 0);
  check_b "gcd" "6" (B.gcd (B.of_int 54) (B.of_int (-24)));
  check_b "gcd with zero" "7" (B.gcd B.zero (B.of_int 7));
  check_b "gcd big"
    "9999999999"
    (B.gcd
       (B.mul (B.of_string "9999999999") (B.of_string "1000000007"))
       (B.mul (B.of_string "9999999999") (B.of_string "998244353")))

let test_bigint_compare () =
  let sorted =
    List.map B.of_string
      [ "-100000000000000000000"; "-5"; "0"; "3"; "100000000000000000000" ]
  in
  let shuffled = List.rev sorted in
  Alcotest.(check (list string)) "sort"
    (List.map B.to_string sorted)
    (List.map B.to_string (List.sort B.compare shuffled));
  Alcotest.(check bool) "is_even 0" true (B.is_even B.zero);
  Alcotest.(check bool) "is_even 7" false (B.is_even (B.of_int 7));
  Alcotest.(check bool) "is_even -4" true (B.is_even (B.of_int (-4)))

let test_bigint_to_float () =
  Alcotest.(check (float 1e-9)) "to_float small" 42.0 (B.to_float (B.of_int 42));
  let big = B.pow (B.of_int 10) 30 in
  Alcotest.(check (float 1e20)) "to_float big" 1e30 (B.to_float big)

(* ------------------------------------------------------------------ *)
(* Bigint properties                                                   *)
(* ------------------------------------------------------------------ *)

let arb_small_int = QCheck.int_range (-1_000_000) 1_000_000

(* Big operands built from random digit strings, sign included. *)
let arb_big =
  let gen =
    QCheck.Gen.(
      let* neg = bool in
      let* ndigits = int_range 1 60 in
      let* digits = list_size (return ndigits) (int_range 0 9) in
      let s = String.concat "" (List.map string_of_int digits) in
      let s = if neg then "-" ^ s else s in
      return (B.of_string s))
  in
  QCheck.make gen ~print:B.to_string

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let bigint_props =
  [ prop "of_int/add agrees with native" 1000
      QCheck.(pair arb_small_int arb_small_int)
      (fun (a, b) -> B.equal (B.add (B.of_int a) (B.of_int b)) (B.of_int (a + b)));
    prop "of_int/mul agrees with native" 1000
      QCheck.(pair arb_small_int arb_small_int)
      (fun (a, b) -> B.equal (B.mul (B.of_int a) (B.of_int b)) (B.of_int (a * b)));
    prop "of_int/divmod agrees with native" 1000
      QCheck.(pair arb_small_int arb_small_int)
      (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = B.divmod (B.of_int a) (B.of_int b) in
        B.to_int_exn q = a / b && B.to_int_exn r = a mod b);
    prop "string roundtrip" 500 arb_big (fun a -> B.equal a (B.of_string (B.to_string a)));
    prop "add commutative" 500 QCheck.(pair arb_big arb_big)
      (fun (a, b) -> B.equal (B.add a b) (B.add b a));
    prop "mul commutative" 300 QCheck.(pair arb_big arb_big)
      (fun (a, b) -> B.equal (B.mul a b) (B.mul b a));
    prop "mul distributes over add" 300 QCheck.(triple arb_big arb_big arb_big)
      (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "sub inverse of add" 500 QCheck.(pair arb_big arb_big)
      (fun (a, b) -> B.equal (B.sub (B.add a b) b) a);
    prop "divmod reconstruction" 500 QCheck.(pair arb_big arb_big)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r)
        && B.compare (B.abs r) (B.abs b) < 0
        && (B.is_zero r || B.sign r = B.sign a));
    prop "gcd divides both" 300 QCheck.(pair arb_big arb_big)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g));
    prop "compare consistent with sub" 500 QCheck.(pair arb_big arb_big)
      (fun (a, b) -> B.compare a b = B.sign (B.sub a b));
    prop "neg involutive" 500 arb_big (fun a -> B.equal a (B.neg (B.neg a)));
  ]

(* ------------------------------------------------------------------ *)
(* Kernel differentials                                                *)
(*                                                                     *)
(* The fast kernels (Karatsuba, hybrid gcd, divide-and-conquer string  *)
(* conversion, the Acc multiply-accumulator) each keep a slow reference*)
(* implementation in reach; these properties cross-validate the two on *)
(* operands big enough to exercise the fast paths.                     *)
(* ------------------------------------------------------------------ *)

(* Operands of up to ~700 digits: far past the Karatsuba limb threshold
   and both divide-and-conquer string thresholds. *)
let arb_huge =
  let gen =
    QCheck.Gen.(
      let* neg = bool in
      let* ndigits = int_range 1 700 in
      let* digits = list_size (return ndigits) (int_range 0 9) in
      let s = String.concat "" (List.map string_of_int digits) in
      let s = if neg then "-" ^ s else s in
      return (B.of_string s))
  in
  QCheck.make gen ~print:B.to_string

let with_karatsuba_threshold t f =
  let saved = !B.karatsuba_threshold in
  B.karatsuba_threshold := t;
  Fun.protect ~finally:(fun () -> B.karatsuba_threshold := saved) f

let kernel_props =
  [ prop "karatsuba agrees with schoolbook" 200 QCheck.(pair arb_huge arb_huge)
      (fun (a, b) ->
        (* Force the split even on small operands so every trial
           exercises at least one recursion level. *)
        let fast = with_karatsuba_threshold 4 (fun () -> B.mul a b) in
        B.equal fast (B.mul_schoolbook a b));
    prop "sqr agrees with mul" 200 arb_huge
      (fun a -> B.equal (B.sqr a) (B.mul_schoolbook a a));
    prop "hybrid gcd agrees with Euclid reference" 200 QCheck.(pair arb_huge arb_huge)
      (fun (a, b) -> B.equal (B.gcd a b) (B.gcd_euclid a b));
    prop "huge string roundtrip" 200 arb_huge
      (fun a -> B.equal a (B.of_string (B.to_string a)));
    prop "to_string agrees with small-chunk reference" 100 arb_huge
      (fun a ->
        (* Decimal digits recovered one-by-one by repeated division:
           the simplest possible reference for the D&C printer. *)
        let rec digits x acc =
          if B.is_zero x then acc
          else
            let q, r = B.divmod x (B.of_int 10) in
            digits q (string_of_int (B.to_int_exn r) ^ acc)
        in
        let expect =
          if B.is_zero a then "0"
          else (if B.is_negative a then "-" else "") ^ digits (B.abs a) ""
        in
        String.equal expect (B.to_string a));
    prop "mul_int agrees with mul of_int" 500
      QCheck.(pair arb_big (int_range (-2_000_000_000) 2_000_000_000))
      (fun (a, n) -> B.equal (B.mul_int a n) (B.mul a (B.of_int n)));
    prop "Acc matches fold of mul/add" 200
      QCheck.(list_of_size (Gen.int_range 0 12) (pair arb_big arb_big))
      (fun pairs ->
        let acc = B.Acc.create () in
        List.iter (fun (a, b) -> B.Acc.add_mul acc a b) pairs;
        let reference =
          List.fold_left (fun s (a, b) -> B.add s (B.mul a b)) B.zero pairs
        in
        B.equal (B.Acc.value acc) reference);
    prop "Acc clear resets" 100 QCheck.(pair arb_big arb_big)
      (fun (a, b) ->
        let acc = B.Acc.create () in
        B.Acc.add_mul acc a b;
        B.Acc.clear acc;
        B.Acc.add acc a;
        B.equal (B.Acc.value acc) a);
  ]

(* ------------------------------------------------------------------ *)
(* Small-integer representation                                        *)
(*                                                                     *)
(* The tagged fast path keeps every value in [-max_int, max_int] as an *)
(* unboxed native int and promotes to limb arrays only past the int63  *)
(* boundary; these tests pin the canonical-form invariant (min_int is  *)
(* the one native int that must stay on the big side) and check the    *)
(* overflow-guarded operations right at the edge.                      *)
(* ------------------------------------------------------------------ *)

let test_small_representation () =
  Alcotest.(check bool) "0 is small" true (B.is_small B.zero);
  Alcotest.(check bool) "max_int is small" true (B.is_small (B.of_int max_int));
  Alcotest.(check bool) "min_int+1 is small" true (B.is_small (B.of_int (min_int + 1)));
  Alcotest.(check bool) "min_int is big" false (B.is_small (B.of_int min_int));
  Alcotest.(check bool) "max_int+1 is big" false (B.is_small (B.succ (B.of_int max_int)));
  (* Demotion: a big-path computation whose result fits comes back
     small, so structural equality keeps coinciding with numeric. *)
  let back =
    B.sub (B.mul (B.of_int max_int) (B.of_int 3)) (B.mul (B.of_int max_int) (B.of_int 2))
  in
  Alcotest.(check bool) "big-path result demotes" true (B.is_small back);
  check_b "demoted value" (string_of_int max_int) back;
  (* min_int asymmetry: |min_int| = max_int + 1 does not fit. *)
  check_b "neg min_int" "4611686018427387904" (B.neg (B.of_int min_int));
  Alcotest.(check bool) "neg min_int is big" false (B.is_small (B.neg (B.of_int min_int)));
  Alcotest.(check (option int)) "to_int_opt min_int" (Some min_int)
    (B.to_int_opt (B.of_int min_int));
  Alcotest.(check (option int)) "to_int_opt -min_int" None
    (B.to_int_opt (B.neg (B.of_int min_int)));
  (* Additive boundary, both directions. *)
  check_b "max_int + 1" "4611686018427387904" (B.add (B.of_int max_int) B.one);
  check_b "min_int - 1" "-4611686018427387905" (B.pred (B.of_int min_int));
  (* -max_int + -1 wraps to exactly min_int in native arithmetic — a
     sum that is representable but must still land on the big side. *)
  let min_via_add = B.add (B.of_int (-max_int)) B.minus_one in
  check_b "-max_int - 1 = min_int" (string_of_int min_int) min_via_add;
  Alcotest.(check bool) "that sum is canonical big" false (B.is_small min_via_add);
  Alcotest.(check bool) "equal across representations" true
    (B.equal min_via_add (B.of_int min_int));
  (* Multiplicative boundary: products whose wrap lands on min_int or
     just past the quick-accept window. *)
  Alcotest.(check bool) "max*max matches schoolbook" true
    (B.equal
       (B.mul (B.of_int max_int) (B.of_int max_int))
       (B.mul_schoolbook (B.of_int max_int) (B.of_int max_int)));
  check_b "2 * 2^61 = 2^62" "4611686018427387904"
    (B.mul B.two (B.of_int (1 lsl 61)));
  check_b "-2 * 2^61 = min_int" (string_of_int min_int)
    (B.mul (B.of_int (-2)) (B.of_int (1 lsl 61)));
  (* min_int / -1 must not hit the native trap. *)
  let q, r = B.divmod (B.of_int min_int) B.minus_one in
  check_b "min_int / -1" "4611686018427387904" q;
  check_b "min_int mod -1" "0" r

(* Integers clustered at the int63 overflow boundary, plus uniform
   noise across the full native range. *)
let arb_int63 =
  let gen =
    QCheck.Gen.(
      frequency
        [ (2, map (fun d -> max_int - d) (int_range 0 2));
          (2, map (fun d -> min_int + d) (int_range 0 2));
          (1, map (fun d -> (1 lsl 31) - 2 + d) (int_range 0 3));
          (2, int_range (-1_000_000) 1_000_000);
          (3, int) ])
  in
  QCheck.make gen ~print:string_of_int

(* Decimal negation of a numeral string: exact reference for [neg]
   across the whole native range, min_int included. *)
let string_neg s =
  if s = "0" then s
  else if s.[0] = '-' then String.sub s 1 (String.length s - 1)
  else "-" ^ s

let small_props =
  [ prop "of_int round-trips, min_int stays big" 2000 arb_int63 (fun n ->
        B.to_int_opt (B.of_int n) = Some n
        && B.is_small (B.of_int n) = (n <> min_int)
        && String.equal (B.to_string (B.of_int n)) (string_of_int n));
    prop "add at the boundary agrees with the big path" 2000
      QCheck.(pair arb_int63 arb_int63)
      (fun (a, b) ->
        (* Reference: the same sum routed through limb arithmetic via a
           large anchor, so the overflow-checked native path is
           cross-validated, not compared with itself. *)
        let anchor = B.pow B.two 100 in
        let reference =
          B.sub (B.add (B.add (B.of_int a) anchor) (B.of_int b)) anchor
        in
        B.equal (B.add (B.of_int a) (B.of_int b)) reference);
    prop "mul at the boundary agrees with schoolbook" 2000
      QCheck.(pair arb_int63 arb_int63)
      (fun (a, b) ->
        B.equal
          (B.mul (B.of_int a) (B.of_int b))
          (B.mul_schoolbook (B.of_int a) (B.of_int b)));
    prop "sqr at the boundary agrees with schoolbook" 1000 arb_int63 (fun a ->
        B.equal (B.sqr (B.of_int a)) (B.mul_schoolbook (B.of_int a) (B.of_int a)));
    prop "neg agrees with decimal negation" 2000 arb_int63 (fun n ->
        B.equal (B.neg (B.of_int n)) (B.of_string (string_neg (string_of_int n))));
    prop "promotion/demotion round-trip through string" 1000 arb_int63 (fun n ->
        (* of_string builds through the limb path for long numerals and
           the accumulator path for short ones; either way the value
           must come back to the canonical small form. *)
        let v = B.of_string (string_of_int n) in
        B.equal v (B.of_int n) && B.is_small v = (n <> min_int));
    prop "divmod at the boundary reconstructs" 1000
      QCheck.(pair arb_int63 arb_int63)
      (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = B.divmod (B.of_int a) (B.of_int b) in
        B.equal (B.of_int a) (B.add (B.mul q (B.of_int b)) r)
        && B.compare (B.abs r) (B.abs (B.of_int b)) < 0);
  ]

(* ------------------------------------------------------------------ *)
(* Multi-limb convolution                                              *)
(* ------------------------------------------------------------------ *)

(* Reference convolution: quadratic scatter over schoolbook products,
   touching none of the code under test. *)
let conv_reference a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb - 1) B.zero in
  for i = 0 to la - 1 do
    for j = 0 to lb - 1 do
      out.(i + j) <- B.add out.(i + j) (B.mul_schoolbook a.(i) b.(j))
    done
  done;
  out

let table_equal x y =
  Array.length x = Array.length y && Array.for_all2 B.equal x y

let table_print t =
  "[" ^ String.concat "; " (Array.to_list (Array.map B.to_string t)) ^ "]"

(* Tables mixing zeros, native-range entries, and multi-limb entries of
   either sign — the value profile of the lifted rational tables the
   DPs feed through [Tables.convolve]. Any multi-limb entry sends the
   whole product past the small-int tier to the bignum paths. *)
let arb_table =
  let gen_entry =
    QCheck.Gen.(
      frequency
        [ (2, return B.zero);
          (3, map B.of_int (int_range (-1_000_000) 1_000_000));
          (2, map B.of_int int);
          (2,
           let* neg = bool in
           let* ndigits = int_range 1 60 in
           let* digits = list_size (return ndigits) (int_range 0 9) in
           let s = String.concat "" (List.map string_of_int digits) in
           return (B.of_string (if neg then "-" ^ s else s))) ])
  in
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      array_size (return n) gen_entry)
  in
  QCheck.make gen ~print:table_print

let convolves_exactly (a, b) = table_equal (Tables.convolve a b) (conv_reference a b)

let test_convolve_adversarial_all_max () =
  (* Every entry at the same 900-bit magnitude, opposite signs on the
     two sides, so every output coefficient is a long sum of equal
     multi-limb products. The 2x64 shape takes the scatter loop, the
     others the multiply-accumulate path. *)
  let huge = B.pred (B.pow B.two 900) in
  List.iter
    (fun (la, lb) ->
      let a = Array.make la huge and b = Array.make lb (B.neg huge) in
      Alcotest.(check bool)
        (Printf.sprintf "all-max %dx%d matches reference" la lb)
        true
        (table_equal (Tables.convolve a b) (conv_reference a b)))
    [ (33, 33); (32, 17); (2, 64); (64, 64) ]

let test_convolve_zero_and_edges () =
  (* An all-zero operand short-circuits to the zero table of the full
     output length, on either side. *)
  let zeros = Array.make 5 B.zero and ones = Array.make 7 B.one in
  List.iter
    (fun (name, a, b) ->
      let out = Tables.convolve a b in
      Alcotest.(check int) (name ^ ": length") 11 (Array.length out);
      Alcotest.(check bool) (name ^ ": all zero") true (Array.for_all B.is_zero out))
    [ ("zeros x ones", zeros, ones); ("ones x zeros", ones, zeros) ];
  (* 1x1 output. *)
  Alcotest.(check bool) "1x1 product" true
    (table_equal (Tables.convolve [| B.two |] [| B.of_int 3 |]) [| B.of_int 6 |]);
  (* [[| 1 |]] is the neutral element, on a multi-limb table too. *)
  let big = [| B.pow B.two 200; B.neg (B.pow B.two 130); B.one |] in
  Alcotest.(check bool) "unit table is neutral" true
    (table_equal (Tables.convolve [| B.one |] big) big
     && table_equal (Tables.convolve big [| B.one |]) big)

let convolve_props =
  [ prop "agrees with schoolbook reference" 150
      QCheck.(pair arb_table arb_table)
      convolves_exactly;
    prop "exact on squared tables" 100 arb_table (fun a -> convolves_exactly (a, a));
    prop "commutes" 100
      QCheck.(pair arb_table arb_table)
      (fun (a, b) -> table_equal (Tables.convolve a b) (Tables.convolve b a));
    prop "all-zero operand gives the zero table" 100
      QCheck.(pair arb_table (int_range 1 40))
      (fun (a, n) ->
        let z = Array.make n B.zero in
        table_equal (Tables.convolve z a) (conv_reference z a)
        && table_equal (Tables.convolve a z) (conv_reference a z));
  ]

(* ------------------------------------------------------------------ *)
(* Rational unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_rational_basic () =
  check_q "normalization" "2/3" (Q.of_ints 4 6);
  check_q "negative den" "-2/3" (Q.of_ints 4 (-6));
  check_q "zero" "0" (Q.of_ints 0 5);
  check_q "integer display" "7" (Q.of_ints 14 2);
  check_q "add" "5/6" (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "sub" "1/6" (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "mul" "1/6" (Q.mul (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "div" "3/2" (Q.div (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "pow neg" "9/4" (Q.pow (Q.of_ints 2 3) (-2));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rational_floor_ceil () =
  let fl a b = B.to_int_exn (Q.floor (Q.of_ints a b)) in
  let ce a b = B.to_int_exn (Q.ceil (Q.of_ints a b)) in
  Alcotest.(check int) "floor 7/2" 3 (fl 7 2);
  Alcotest.(check int) "floor -7/2" (-4) (fl (-7) 2);
  Alcotest.(check int) "floor 6/2" 3 (fl 6 2);
  Alcotest.(check int) "ceil 7/2" 4 (ce 7 2);
  Alcotest.(check int) "ceil -7/2" (-3) (ce (-7) 2);
  Alcotest.(check int) "ceil -6/2" (-3) (ce (-6) 2)

let test_rational_string () =
  check_q "of_string int" "5" (Q.of_string "5");
  check_q "of_string frac" "-5/7" (Q.of_string "-5/7");
  check_q "of_string unnormalized" "1/2" (Q.of_string "2/4")

let arb_rat =
  let gen =
    QCheck.Gen.(
      let* n = int_range (-10000) 10000 in
      let* d = int_range 1 10000 in
      return (Q.of_ints n d))
  in
  QCheck.make gen ~print:Q.to_string

let rational_props =
  [ prop "add assoc" 500 QCheck.(triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)));
    prop "mul inverse" 500 arb_rat
      (fun a ->
        QCheck.assume (not (Q.is_zero a));
        Q.equal Q.one (Q.mul a (Q.inv a)));
    prop "distributivity" 500 QCheck.(triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) -> Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "compare antisymmetric" 500 QCheck.(pair arb_rat arb_rat)
      (fun (a, b) -> Q.compare a b = -Q.compare b a);
    prop "floor <= x < floor+1" 500 arb_rat
      (fun a ->
        let f = Q.of_bigint (Q.floor a) in
        Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0);
    prop "to_float close" 500 arb_rat
      (fun a ->
        let f = Q.to_float a in
        abs_float (f -. (B.to_float (Q.num a) /. B.to_float (Q.den a))) < 1e-9);
    (* The cross-gcd add/mul forms must keep results reduced with a
       positive denominator — the invariant they themselves rely on. *)
    prop "add/mul keep fractions reduced" 300
      QCheck.(pair (pair arb_big arb_big) (pair arb_big arb_big))
      (fun ((an, ad), (bn, bd)) ->
        QCheck.assume (not (B.is_zero ad) && not (B.is_zero bd));
        let a = Q.make an ad and b = Q.make bn bd in
        let reduced q =
          B.sign (Q.den q) > 0 && B.is_one (B.gcd (Q.num q) (Q.den q))
        in
        reduced (Q.add a b) && reduced (Q.mul a b) && reduced (Q.sub a b)
        && reduced (Q.mul_int a 84) && reduced (Q.div_int b 84));
  ]

(* ------------------------------------------------------------------ *)
(* Combinat                                                            *)
(* ------------------------------------------------------------------ *)

let test_factorial () =
  check_b "0!" "1" (C.factorial 0);
  check_b "1!" "1" (C.factorial 1);
  check_b "10!" "3628800" (C.factorial 10);
  check_b "25!" "15511210043330985984000000" (C.factorial 25);
  (* Memoization across descending calls. *)
  check_b "5! after 25!" "120" (C.factorial 5)

let test_binomial () =
  check_b "C(0,0)" "1" (C.binomial 0 0);
  check_b "C(5,2)" "10" (C.binomial 5 2);
  check_b "C(5,7)" "0" (C.binomial 5 7);
  check_b "C(5,-1)" "0" (C.binomial 5 (-1));
  check_b "C(100,50)" "100891344545564193334812497256" (C.binomial 100 50)

let test_shapley_coefficient () =
  (* For n players the coefficients over all positions of one player and
     all coalition sizes sum to 1: sum_k C(n-1,k) q_k = 1. *)
  let n = 12 in
  let total =
    List.init n (fun k ->
        Q.mul
          (Q.of_bigint (C.binomial (n - 1) k))
          (C.shapley_coefficient ~players:n ~before:k))
    |> Q.sum
  in
  check_q "sum_k C(n-1,k) q_k = 1" "1" total;
  check_q "q_0 = 1/n" "1/12" (C.shapley_coefficient ~players:12 ~before:0)

let test_harmonic () =
  check_q "H(0)" "0" (C.harmonic 0);
  check_q "H(1)" "1" (C.harmonic 1);
  check_q "H(4)" "25/12" (C.harmonic 4);
  check_q "H(3) after H(4)" "11/6" (C.harmonic 3)

let test_misc_combinat () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (C.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (C.divisors 1);
  Alcotest.(check (list int)) "divisors 13" [ 1; 13 ] (C.divisors 13);
  Alcotest.(check int) "compositions2 count" 6 (List.length (C.compositions2 5));
  check_b "falling factorial" "60" (C.falling_factorial 5 3);
  check_b "falling factorial k=0" "1" (C.falling_factorial 5 0)

let combinat_props =
  [ prop "pascal identity" 200
      QCheck.(pair (int_range 1 60) (int_range 0 60))
      (fun (n, k) ->
        B.equal (C.binomial n k)
          (B.add (C.binomial (n - 1) k) (C.binomial (n - 1) (k - 1))));
    prop "binomial symmetry" 200
      QCheck.(pair (int_range 0 60) (int_range 0 60))
      (fun (n, k) ->
        QCheck.assume (k <= n);
        B.equal (C.binomial n k) (C.binomial n (n - k)));
    prop "coefficients sum to one" 50 (QCheck.int_range 1 30)
      (fun n ->
        let total =
          List.init n (fun k ->
              Q.mul
                (Q.of_bigint (C.binomial (n - 1) k))
                (C.shapley_coefficient ~players:n ~before:k))
          |> Q.sum
        in
        Q.equal total Q.one);
  ]

(* ------------------------------------------------------------------ *)
(* Fault registry: the arithmetic layer's injection point              *)
(* ------------------------------------------------------------------ *)

let with_fault fault f =
  assert (!Fault.current = `None);
  Fault.current := fault;
  Fun.protect ~finally:(fun () -> Fault.current := `None) f

(* [`Karatsuba_split] adds (|a|/4)*(|b|/4)*4 to every product whose
   operands are both at least 4, squares included; the schoolbook
   reference ignores it, and clearing the registry restores exactness. *)
let test_karatsuba_split_fault () =
  with_fault `Karatsuba_split (fun () ->
      check_b "5*7 corrupted" "39" (B.mul (B.of_int 5) (B.of_int 7));
      check_b "5^2 corrupted" "29" (B.sqr (B.of_int 5));
      check_b "an operand below 4 is exact" "21" (B.mul (B.of_int 3) (B.of_int 7));
      check_b "schoolbook ignores the fault" "35"
        (B.mul_schoolbook (B.of_int 5) (B.of_int 7)));
  check_b "cleared: exact again" "35" (B.mul (B.of_int 5) (B.of_int 7))

(* Every other variant belongs to another layer: multiplication and
   squaring stay exact while it is armed. *)
let test_other_faults_leave_arithmetic_exact () =
  List.iter
    (fun fault ->
      with_fault fault (fun () ->
          check_b "5*7" "35" (B.mul (B.of_int 5) (B.of_int 7));
          check_b "5^2" "25" (B.sqr (B.of_int 5))))
    [ `Convolve_off_by_one; `Tree_fold_skew; `Stale_block; `Block_drop; `Stale_index;
      `Ddnnf_cache_poison; `Kc_budget_leak ]

let () =
  Alcotest.run "arith"
    [ ( "bigint",
        [ Alcotest.test_case "basic" `Quick test_bigint_basic;
          Alcotest.test_case "string roundtrip" `Quick test_bigint_string_roundtrip;
          Alcotest.test_case "of_string strict decimal" `Quick
            test_bigint_of_string_strict;
          Alcotest.test_case "large arithmetic" `Quick test_bigint_arith_large;
          Alcotest.test_case "divmod signs" `Quick test_bigint_divmod_signs;
          Alcotest.test_case "pow and gcd" `Quick test_bigint_pow_gcd;
          Alcotest.test_case "compare" `Quick test_bigint_compare;
          Alcotest.test_case "to_float" `Quick test_bigint_to_float;
          Alcotest.test_case "small representation boundary" `Quick
            test_small_representation;
        ] );
      ("bigint properties", bigint_props);
      ("small-int properties", small_props);
      ("kernel differentials", kernel_props);
      ( "multi-limb convolution",
        Alcotest.test_case "adversarial all-max tables" `Quick
          test_convolve_adversarial_all_max
        :: Alcotest.test_case "zeros and edge shapes" `Quick test_convolve_zero_and_edges
        :: convolve_props );
      ( "rational",
        [ Alcotest.test_case "basic" `Quick test_rational_basic;
          Alcotest.test_case "floor/ceil" `Quick test_rational_floor_ceil;
          Alcotest.test_case "strings" `Quick test_rational_string;
        ] );
      ("rational properties", rational_props);
      ( "fault registry",
        [ Alcotest.test_case "karatsuba split corrupts mul and sqr" `Quick
            test_karatsuba_split_fault;
          Alcotest.test_case "other variants leave arithmetic exact" `Quick
            test_other_faults_leave_arithmetic_exact;
        ] );
      ( "combinat",
        [ Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "shapley coefficient" `Quick test_shapley_coefficient;
          Alcotest.test_case "harmonic" `Quick test_harmonic;
          Alcotest.test_case "misc" `Quick test_misc_combinat;
        ] );
      ("combinat properties", combinat_props);
    ]
