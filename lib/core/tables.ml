module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module C = Aggshap_arith.Combinat

type counts = B.t array

type stats = {
  convolve : int;
  convolve_small : int;
  convolve_ntt : int;
  convolve_rat : int;
  tree_folds : int;
  weighted_sums : int;
}

(* Atomic counters, same contract as [Bigint.stats]: exact under
   concurrent domains. *)
let c_convolve = Atomic.make 0
let c_convolve_small = Atomic.make 0
let c_convolve_rat = Atomic.make 0
let c_tree_folds = Atomic.make 0
let c_weighted_sums = Atomic.make 0

let stats () =
  { convolve = Atomic.get c_convolve;
    convolve_small = Atomic.get c_convolve_small;
    convolve_ntt = 0;
    convolve_rat = Atomic.get c_convolve_rat;
    tree_folds = Atomic.get c_tree_folds;
    weighted_sums = Atomic.get c_weighted_sums }

let reset_stats () =
  Atomic.set c_convolve 0;
  Atomic.set c_convolve_small 0;
  Atomic.set c_convolve_rat 0;
  Atomic.set c_tree_folds 0;
  Atomic.set c_weighted_sums 0

let zeros n = Array.make (n + 1) B.zero

let delta n k0 =
  let c = zeros n in
  c.(k0) <- B.one;
  c

(* Copied, not aliased: counts arrays are treated as immutable
   everywhere, but the Pascal row is the combinatorics memo's own
   storage and must not be reachable from a caller. *)
let full n = Array.copy (C.binomial_row n)

let check_same_length a b =
  if Array.length a <> Array.length b then
    invalid_arg "Tables: length mismatch"

let add a b =
  check_same_length a b;
  Array.map2 B.add a b

let sub a b =
  check_same_length a b;
  Array.map2 B.sub a b

let complement n c = sub (full n) c

type fault =
  [ `None
  | `Convolve_off_by_one
  | `Tree_fold_skew
  | `Karatsuba_split
  | `Stale_block
  | `Block_drop
  | `Stale_index
  | `Ddnnf_cache_poison
  | `Kc_budget_leak ]

let fault : fault ref = ref `None

(* [`Karatsuba_split] lives in the arithmetic layer (it must corrupt
   the multiplications of every caller), [`Stale_index] in the
   relational storage layer (index maintenance skipped on updates),
   and [`Ddnnf_cache_poison] / [`Kc_budget_leak] in the
   knowledge-compilation tier's circuit compiler, so the setter keeps
   [Bigint.fault], [Database.fault] and [Ddnnf.fault] in sync. *)
let set_fault f =
  fault := f;
  B.fault := (match f with `Karatsuba_split -> `Karatsuba_split | _ -> `None);
  Aggshap_relational.Database.fault :=
    (match f with `Stale_index -> `Stale_index | _ -> `None);
  Aggshap_lineage.Ddnnf.fault :=
    (match f with
    | `Ddnnf_cache_poison -> `Cache_poison
    | `Kc_budget_leak -> `Budget_leak
    | _ -> `None)

let current_fault () = !fault

(* Below this length (of the shorter operand) a convolution entry only
   accumulates a handful of terms: the zero-skipping scatter loop beats
   the multiply-accumulate form, whose per-entry clear/extract overhead
   then dominates. The DPs produce both shapes in bulk — long-by-tiny
   sparse products (hierarchy blocks folded one value at a time) and
   dense square ones (combining whole sub-instance tables). *)
let acc_threshold = 8

let count_nonzero a =
  let c = ref 0 in
  Array.iter (fun x -> if not (B.is_zero x) then incr c) a;
  !c

(* First tier: when every entry of both tables is in the small-int
   representation, the whole convolution runs in the int domain — two
   flat [int array]s, native products and sums, no constructor
   dispatch, no per-term [Bigint] calls. Every product and partial sum
   is overflow-checked with the same tests [Bigint.mul]/[add] use; any
   overflow aborts to the generic paths, which recompute from scratch
   (rare: one table entry past 62 bits sends the whole convolution to
   the classic tier, and the aborted int work is at most one pass).
   Inputs hold no [min_int] (excluded from the small representation),
   so [abs] and the division check below are exact. *)
exception Int_overflow

let small_values a =
  Array.map
    (fun x -> if B.is_small x then B.small_value x else raise_notrace Int_overflow)
    a

let small_convolve ai bi n =
  let la = Array.length ai and lb = Array.length bi in
  let out = Array.make n 0 in
  for i = 0 to la - 1 do
    let x = ai.(i) in
    if x <> 0 then
      for j = 0 to lb - 1 do
        let y = bi.(j) in
        if y <> 0 then begin
          let p =
            if abs x < 0x40000000 && abs y < 0x40000000 then x * y
            else
              let p = x * y in
              if p = min_int || p / y <> x then raise_notrace Int_overflow else p
          in
          let k = i + j in
          let o = out.(k) in
          let s = o + p in
          if (o >= 0) = (p >= 0) && (s >= 0) <> (p >= 0) then
            raise_notrace Int_overflow;
          out.(k) <- s
        end
      done
  done;
  out

let convolve a b =
  Atomic.incr c_convolve;
  let la = Array.length a and lb = Array.length b in
  let n = la + lb - 1 in
  let out =
    (* An all-zero operand makes the product all zero whatever the
       other side holds. [for_all] stops at the first nonzero entry, so
       the check costs next to nothing on live tables. *)
    if Array.for_all B.is_zero a || Array.for_all B.is_zero b then Array.make n B.zero
    else
      match small_convolve (small_values a) (small_values b) n with
      | ints ->
        Atomic.incr c_convolve_small;
        Array.map B.of_int ints
      | exception Int_overflow ->
        let out = Array.make n B.zero in
        (* Shape dispatch: the multiply-accumulate path amortizes only when
           most term products are live. Thin operands and sparse tables (the
           per-key tables of the keyed DPs are mostly zeros) go through the
           zero-skipping scatter loop instead; the density scan is O(la+lb)
           against the O(la*lb) convolution itself. *)
        let dense =
          Stdlib.min la lb >= acc_threshold
          && 2 * count_nonzero a * count_nonzero b >= la * lb
        in
        if not dense then
          (* Scatter with zero skipping: sparse or thin operands. *)
          for i = 0 to la - 1 do
            if not (B.is_zero a.(i)) then
              for j = 0 to lb - 1 do
                if not (B.is_zero b.(j)) then
                  out.(i + j) <- B.add out.(i + j) (B.mul a.(i) b.(j))
              done
          done
        else begin
          (* Dense path: one multiply-accumulate buffer reused across output
             entries — no intermediate product or partial-sum bignum is
             allocated per term. *)
          let acc = B.Acc.create () in
          for k = 0 to la + lb - 2 do
            B.Acc.clear acc;
            let i0 = Stdlib.max 0 (k - lb + 1) and i1 = Stdlib.min (la - 1) k in
            for i = i0 to i1 do
              B.Acc.add_mul acc a.(i) b.(k - i)
            done;
            out.(k) <- B.Acc.value acc
          done
        end;
        out
  in
  (match !fault with
   | `Convolve_off_by_one ->
     if la > 1 && lb > 1 then
       out.(Array.length out - 1) <- B.add out.(Array.length out - 1) B.one
   | `None | `Tree_fold_skew | `Karatsuba_split | `Stale_block | `Block_drop
   | `Stale_index | `Ddnnf_cache_poison | `Kc_budget_leak -> ());
  out

let convolve_many ts =
  match ts with
  | [] -> [| B.one |]
  | [ t ] -> t
  | ts ->
    Atomic.incr c_tree_folds;
    (* Balanced pairwise reduction: adjacent tables are convolved level
       by level, so each input table participates in O(log n) products
       of comparable size instead of being re-traversed by an
       ever-growing left-fold accumulator. Order-preserving, and
       bit-identical to the fold because bignum arithmetic is exact. *)
    let arr = ref (Array.of_list ts) in
    let input_count = Array.length !arr in
    while Array.length !arr > 1 do
      let n = Array.length !arr in
      let half = n / 2 in
      let next = Array.make ((n + 1) / 2) [||] in
      for i = 0 to half - 1 do
        next.(i) <- convolve !arr.(2 * i) !arr.((2 * i) + 1)
      done;
      if n land 1 = 1 then next.(half) <- !arr.(n - 1);
      arr := next
    done;
    let out = !arr.(0) in
    (match !fault with
     | `Tree_fold_skew ->
       (* Simulated mis-pairing of siblings in the reduction tree: the
          top two subset sizes of the merged table trade places. Only
          fires when the tree actually has internal structure. *)
       let len = Array.length out in
       if input_count >= 3 && len >= 2 then begin
         let t = out.(len - 1) in
         out.(len - 1) <- out.(len - 2);
         out.(len - 2) <- t
       end
     | `None | `Convolve_off_by_one | `Karatsuba_split | `Stale_block | `Block_drop
     | `Stale_index | `Ddnnf_cache_poison | `Kc_budget_leak -> ());
    out

let pad p c = if p = 0 then c else convolve c (full p)

let total c = Array.fold_left B.add B.zero c

let to_rationals c = Array.map Q.of_bigint c

let scale_to r c = Array.map (fun x -> Q.mul r (Q.of_bigint x)) c

let add_rat a b =
  if Array.length a <> Array.length b then invalid_arg "Tables.add_rat: length mismatch";
  Array.map2 Q.add a b

let zeros_rat n = Array.make (n + 1) Q.zero

(* Least common multiple of the denominators, with a fast path for the
   (dominant) case where a denominator already divides the running
   lcm. *)
let den_lcm acc q =
  let d = Q.den q in
  if B.is_one d || B.equal d acc then acc else B.lcm acc d

let convolve_rat a b =
  Atomic.incr c_convolve_rat;
  (* Common-denominator form: lift both operands to integer arrays over
     one denominator each, convolve exactly as integers, and normalize
     once per entry at the end — instead of one gcd per term inside
     [Q.add]/[Q.mul]. *)
  let da = Array.fold_left den_lcm B.one a in
  let db = Array.fold_left den_lcm B.one b in
  let lift d q =
    if Q.is_zero q then B.zero
    else B.mul (Q.num q) (B.div d (Q.den q))
  in
  let na = Array.map (lift da) a and nb = Array.map (lift db) b in
  let out = convolve na nb in
  let d = B.mul da db in
  Array.map (fun x -> Q.make x d) out

let pad_rat p c =
  if p = 0 then c
  else convolve_rat c (Array.map Q.of_bigint (full p))

let weighted_sum n pairs =
  Atomic.incr c_weighted_sums;
  (* Σ_i w_i * c_i over the lcm of the weights' denominators: all-integer
     accumulation, one gcd per subset size at the very end. *)
  let d = List.fold_left (fun acc (w, _) -> den_lcm acc w) B.one pairs in
  let accs = Array.init (n + 1) (fun _ -> B.Acc.create ()) in
  List.iter
    (fun (w, c) ->
      if Array.length c <> n + 1 then invalid_arg "Tables.weighted_sum: length mismatch";
      if not (Q.is_zero w) then begin
        let scaled = B.mul (Q.num w) (B.div d (Q.den w)) in
        Array.iteri (fun k x -> B.Acc.add_mul accs.(k) scaled x) c
      end)
    pairs;
  Array.map (fun acc -> Q.make (B.Acc.value acc) d) accs
