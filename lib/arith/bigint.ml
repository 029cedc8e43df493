(* Sign-magnitude bignums with a tagged small-integer fast path.

   A value is either [Small n] — a native 63-bit OCaml integer — or
   [Big], a sign-magnitude little-endian limb array in base 2^30. The
   representation is canonical: every integer that fits a native [int]
   (except [min_int], whose negation overflows, so it always lives on
   the [Big] side) is [Small], and every operation demotes a limb-array
   result back to [Small] the moment it fits. Canonical forms make
   structural equality coincide with numeric equality and keep the many
   tiny DP-table entries produced early in the recursions off the heap
   entirely: a [Small] is an immediate, unboxed value.

   Small/small operations run in native arithmetic guarded by exact
   overflow checks (promote only on demand); everything else promotes to
   limbs. Base 2^30 keeps every intermediate product of two limbs below
   2^60 and every product-plus-carry below 2^62, which fits comfortably
   in OCaml's 63-bit native integers. Division is Knuth's Algorithm D
   (TAOCP vol. 2, 4.3.1); the classic qhat estimation and add-back
   correction are kept exactly as in the reference formulation.
   Multiplication switches from schoolbook to Karatsuba above
   [karatsuba_threshold] limbs, string conversion is divide-and-conquer
   above [string_threshold] limbs, and gcd is a hybrid of Euclid
   division steps and a word-sized binary (Stein) finish. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type big = { sign : int; mag : int array }
(* Invariants: [sign] is -1, 0 or 1; [mag] has no trailing (most
   significant) zero limb; [sign = 0] iff [mag] is empty. *)

type t = Small of int | Big of big
(* Canonical forms: [Small n] for every native [n] except [min_int];
   [Big] only for values outside [[-max_int, max_int]] (which includes
   [min_int] itself). Internal kernels work on [big] records and may
   produce small magnitudes; [demote] restores canonicity at the public
   boundary. *)

type stats = {
  mul_schoolbook : int;
  mul_karatsuba : int;
  mul_small : int;
  sqr : int;
  divmod : int;
  gcd : int;
  acc_mul : int;
  promotions : int;
  demotions : int;
}

(* Atomic counters: increments from concurrent domains are never lost,
   so [--stats] and BENCH_v1 kernel counts are exact under --jobs N. *)
let c_mul_schoolbook = Atomic.make 0
let c_mul_karatsuba = Atomic.make 0
let c_mul_small = Atomic.make 0
let c_sqr = Atomic.make 0
let c_divmod = Atomic.make 0
let c_gcd = Atomic.make 0
let c_acc_mul = Atomic.make 0
let c_promotions = Atomic.make 0
let c_demotions = Atomic.make 0

let stats () =
  { mul_schoolbook = Atomic.get c_mul_schoolbook;
    mul_karatsuba = Atomic.get c_mul_karatsuba;
    mul_small = Atomic.get c_mul_small;
    sqr = Atomic.get c_sqr;
    divmod = Atomic.get c_divmod;
    gcd = Atomic.get c_gcd;
    acc_mul = Atomic.get c_acc_mul;
    promotions = Atomic.get c_promotions;
    demotions = Atomic.get c_demotions }

let reset_stats () =
  Atomic.set c_mul_schoolbook 0;
  Atomic.set c_mul_karatsuba 0;
  Atomic.set c_mul_small 0;
  Atomic.set c_sqr 0;
  Atomic.set c_divmod 0;
  Atomic.set c_gcd 0;
  Atomic.set c_acc_mul 0;
  Atomic.set c_promotions 0;
  Atomic.set c_demotions 0

let big_zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i > 0 && mag.(i - 1) = 0 then top (i - 1) else i in
  let len = top n in
  if len = 0 then big_zero
  else if len = n then { sign; mag }
  else { sign; mag = Array.sub mag 0 len }

(* Effective length of a working magnitude: index past the most
   significant non-zero limb. Internal kernels tolerate (and produce)
   leading zero limbs; [trim_len] is how they agree on the real size. *)
let trim_len mag =
  let rec top i = if i > 0 && mag.(i - 1) = 0 then top (i - 1) else i in
  top (Array.length mag)

let trim mag =
  let len = trim_len mag in
  if len = Array.length mag then mag else Array.sub mag 0 len

let big_of_small n =
  (* [n] must satisfy [0 <= n]. *)
  if n = 0 then big_zero
  else if n < base then { sign = 1; mag = [| n |] }
  else if n < base * base then { sign = 1; mag = [| n land limb_mask; n lsr limb_bits |] }
  else
    { sign = 1;
      mag =
        [| n land limb_mask;
           (n lsr limb_bits) land limb_mask;
           n lsr (2 * limb_bits) |] }

let big_of_int n =
  if n = 0 then big_zero
  else if n > 0 then big_of_small n
  else if n = min_int then
    (* [-n] overflows; build from [max_int] instead. *)
    let m = big_of_small max_int in
    let m1 = { m with mag = Array.copy m.mag } in
    let mag = m1.mag in
    (* max_int + 1: increment with carry. *)
    let rec inc i carry mag =
      if carry = 0 then mag
      else if i < Array.length mag then begin
        let s = mag.(i) + carry in
        mag.(i) <- s land limb_mask;
        inc (i + 1) (s lsr limb_bits) mag
      end
      else begin
        let mag' = Array.make (Array.length mag + 1) 0 in
        Array.blit mag 0 mag' 0 (Array.length mag);
        mag'.(Array.length mag) <- carry;
        mag'
      end
    in
    { sign = -1; mag = inc 0 1 mag }
  else { (big_of_small (-n)) with sign = -1 }

(* Demote a limb-array result to [Small] when the value fits a native
   int other than [min_int]; restores the canonical-form invariant. *)
let demote b =
  let small =
    match Array.length b.mag with
    | 0 -> Some 0
    | 1 -> Some (b.sign * b.mag.(0))
    | 2 -> Some (b.sign * ((b.mag.(1) lsl limb_bits) lor b.mag.(0)))
    | 3 ->
      let high = b.mag.(2) in
      if high < 1 lsl (62 - (2 * limb_bits)) then
        Some (b.sign * ((high lsl (2 * limb_bits)) lor (b.mag.(1) lsl limb_bits) lor b.mag.(0)))
      else None
    | _ -> None
  in
  match small with
  | Some n ->
    Atomic.incr c_demotions;
    Small n
  | None -> Big b

(* Promote to the limb representation on demand. *)
let big_of = function
  | Big b -> b
  | Small n ->
    Atomic.incr c_promotions;
    big_of_int n

let zero = Small 0
let one = Small 1
let two = Small 2
let minus_one = Small (-1)

let of_int n = if n = min_int then Big (big_of_int min_int) else Small n

let is_small = function Small _ -> true | Big _ -> false

let small_value = function
  | Small n -> n
  | Big _ -> invalid_arg "Bigint.small_value: promoted value"

let sign = function
  | Small n -> Stdlib.compare n 0
  | Big b -> b.sign

let is_zero = function Small 0 -> true | _ -> false
let is_one = function Small 1 -> true | _ -> false

let is_negative = function
  | Small n -> n < 0
  | Big b -> b.sign < 0

let is_even = function
  | Small n -> n land 1 = 0
  | Big b -> b.mag.(0) land 1 = 0

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let big_compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let compare a b =
  match (a, b) with
  | Small x, Small y -> Stdlib.compare x y
  | Big x, Big y -> big_compare x y
  (* A canonical [Big] is larger in magnitude than any [Small]. *)
  | Small _, Big y -> if y.sign > 0 then -1 else 1
  | Big x, Small _ -> if x.sign > 0 then 1 else -1

let equal a b = compare a b = 0

let hash = function
  | Small n -> n land max_int
  | Big b ->
    Array.fold_left (fun acc limb -> ((acc * 31) + limb) land max_int) b.sign b.mag

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg = function
  | Small n -> Small (-n) (* [n <> min_int] by the canonical-form invariant *)
  | Big b -> Big { b with sign = -b.sign }

let abs t =
  match t with
  | Small n -> if n < 0 then Small (-n) else t
  | Big b -> if b.sign < 0 then Big { b with sign = 1 } else t

(* Magnitude addition: no sign involved. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = Stdlib.max la lb in
  let out = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(lmax) <- !carry;
  out

(* Magnitude subtraction: requires [a >= b] as values (leading zero
   limbs on either side are fine). *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lb = Stdlib.min lb la in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      out.(i) <- s + base;
      borrow := 1
    end
    else begin
      out.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  out

let big_add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    match compare_mag a.mag b.mag with
    | 0 -> big_zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)

let add a b =
  match (a, b) with
  | Small 0, _ -> b
  | _, Small 0 -> a
  | Small x, Small y ->
    let s = x + y in
    if (x >= 0) = (y >= 0) && (s >= 0) <> (x >= 0) then
      (* Native overflow: the true sum exceeds [max_int] in magnitude,
         so the limb-path result stays [Big] with no demotion check. *)
      Big (big_add (big_of_int x) (big_of_int y))
    else if s = min_int then Big (big_of_int min_int)
    else Small s
  | _ -> demote (big_add (big_of a) (big_of b))

let sub a b = add a (neg b)

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    Atomic.incr c_mul_schoolbook;
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    out
  end

(* [add_into out off src] accumulates [src] (a working magnitude,
   leading zeros allowed) into [out] starting at limb [off]. The caller
   guarantees the mathematical result fits in [out]. *)
let add_into out off src =
  let el = trim_len src in
  let carry = ref 0 in
  for i = 0 to el - 1 do
    let s = out.(off + i) + src.(i) + !carry in
    out.(off + i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  let j = ref (off + el) in
  while !carry <> 0 do
    let s = out.(!j) + !carry in
    out.(!j) <- s land limb_mask;
    carry := s lsr limb_bits;
    incr j
  done

(* Below this many limbs (on the shorter operand) Karatsuba's extra
   additions and allocations cost more than the saved limb products;
   tuned with a 150..10000-digit sweep on the bench machine. Exposed
   for tests. *)
let karatsuba_threshold = ref 48

(* Karatsuba recursion, splitting both operands at half the shorter
   length. Splitting at the shorter operand keeps [z1 = a0*b1 + a1*b0]
   within [la + lb - m] limbs, so the final accumulation never outgrows
   the [la + lb] result buffer. *)
let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else
    let lmin = Stdlib.min la lb in
    if lmin < Stdlib.max 4 !karatsuba_threshold then mul_mag_school a b
    else begin
      Atomic.incr c_mul_karatsuba;
      let m = (lmin + 1) / 2 in
      let lo x = Array.sub x 0 m in
      let hi x = Array.sub x m (Array.length x - m) in
      let a0 = lo a and a1 = hi a in
      let b0 = lo b and b1 = hi b in
      let z0 = mul_mag a0 b0 in
      let z2 = mul_mag a1 b1 in
      let z1 =
        sub_mag
          (sub_mag (mul_mag (add_mag a0 a1) (add_mag b0 b1)) z0)
          z2
      in
      let out = Array.make (la + lb) 0 in
      add_into out 0 z0;
      add_into out m z1;
      add_into out (2 * m) z2;
      out
    end

(* Schoolbook squaring with the symmetric-term trick: accumulate the
   strictly-upper cross products, double, then add the diagonal. *)
let sqr_mag_school a =
  let la = Array.length a in
  if la = 0 then [||]
  else begin
    let out = Array.make (2 * la) 0 in
    for i = 0 to la - 2 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = i + 1 to la - 1 do
        let cur = out.(i + j) + (ai * a.(j)) + !carry in
        out.(i + j) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      out.(i + la) <- out.(i + la) + !carry
    done;
    let carry = ref 0 in
    for k = 0 to (2 * la) - 1 do
      let v = (out.(k) lsl 1) lor !carry in
      out.(k) <- v land limb_mask;
      carry := v lsr limb_bits
    done;
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = a.(i) * a.(i) in
      let s0 = out.(2 * i) + (p land limb_mask) + !carry in
      out.(2 * i) <- s0 land limb_mask;
      let s1 = out.((2 * i) + 1) + (p lsr limb_bits) + (s0 lsr limb_bits) in
      out.((2 * i) + 1) <- s1 land limb_mask;
      carry := s1 lsr limb_bits
    done;
    out
  end

let rec sqr_mag a =
  let la = Array.length a in
  if la = 0 then [||]
  else if la < Stdlib.max 4 !karatsuba_threshold then sqr_mag_school a
  else begin
    let m = (la + 1) / 2 in
    let a0 = Array.sub a 0 m in
    let a1 = Array.sub a m (la - m) in
    let z0 = sqr_mag a0 in
    let z2 = sqr_mag a1 in
    let z1 = sub_mag (sub_mag (sqr_mag (add_mag a0 a1)) z0) z2 in
    let out = Array.make (2 * la) 0 in
    add_into out 0 z0;
    add_into out m z1;
    add_into out (2 * m) z2;
    out
  end

(* Left-shift a magnitude by [s] bits, 0 <= s < limb_bits. *)
let shift_left_bits u s =
  if s = 0 then Array.copy u
  else begin
    let n = Array.length u in
    let out = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let v = (u.(i) lsl s) lor !carry in
      out.(i) <- v land limb_mask;
      carry := v lsr limb_bits
    done;
    out.(n) <- !carry;
    out
  end

(* Right-shift a magnitude by [s] bits, 0 <= s < limb_bits. *)
let shift_right_bits u s =
  if s = 0 then Array.copy u
  else begin
    let n = Array.length u in
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      let low = u.(i) lsr s in
      let high = if i + 1 < n then (u.(i + 1) lsl (limb_bits - s)) land limb_mask else 0 in
      out.(i) <- low lor high
    done;
    out
  end

(* The injected Karatsuba fault: pretend the implementation forgot the
   [- z2] term in [z1] for a 2-bit split, i.e. return
   [a*b + (|a|/4)*(|b|/4)*4]. The 2-bit split (rather than the
   real limb threshold) makes the bug observable on the small operands
   fuzz trials produce, while still requiring both operands >= 4 --
   exactly the shape of a split-point bug that only fires on "large
   enough" inputs. *)
let karatsuba_split_corrupt a b r =
  let a1 = trim (shift_right_bits a.mag 2) in
  let b1 = trim (shift_right_bits b.mag 2) in
  if Array.length a1 = 0 || Array.length b1 = 0 then r
  else
    let bump = shift_left_bits (mul_mag_school a1 b1) 2 in
    normalize r.sign (add_mag r.mag bump)

let big_mul a b =
  if a.sign = 0 || b.sign = 0 then big_zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

(* The fault applies to every multiplication — including the native
   small/small fast path — so randomized trials on tiny operands can
   still observe it. *)
let apply_mul_fault a b r =
  demote (karatsuba_split_corrupt (big_of a) (big_of b) (big_of r))

(* Both factors strictly below 2^31 in magnitude multiply without
   overflow (product < 2^62 <= max_int); the quick-accept test keeps
   the dominant tiny-operand case free of the division-based check. *)
let small_prod_bound = 1 lsl 31

let mul a b =
  match (a, b) with
  | Small 0, _ | _, Small 0 -> Small 0
  | Small x, Small y ->
    let r =
      let ax = if x < 0 then -x else x in
      let ay = if y < 0 then -y else y in
      if ax < small_prod_bound && ay < small_prod_bound then begin
        Atomic.incr c_mul_small;
        Small (x * y)
      end
      else
        let p = x * y in
        (* [p = min_int] is either a wrap or the one in-range product
           [Small] cannot hold; [p / y = x] certifies no overflow
           (a wrapped product differs from the true one by a multiple
           of 2^63, farther than any |y| < 2^62 rounding slack). *)
        if p <> min_int && p / y = x then begin
          Atomic.incr c_mul_small;
          Small p
        end
        else demote (big_mul (big_of_int x) (big_of_int y))
    in
    (match !Fault.current with
     | `Karatsuba_split -> apply_mul_fault a b r
     | _ -> r)
  | _ ->
    let r = demote (big_mul (big_of a) (big_of b)) in
    (match !Fault.current with
     | `Karatsuba_split -> apply_mul_fault a b r
     | _ -> r)

let mul_schoolbook a b =
  match (a, b) with
  | Small 0, _ | _, Small 0 -> Small 0
  | _ ->
    let a = big_of a and b = big_of b in
    demote (normalize (a.sign * b.sign) (mul_mag_school a.mag b.mag))

let sqr a =
  match a with
  | Small 0 -> Small 0
  | Small x ->
    Atomic.incr c_sqr;
    let r =
      let ax = if x < 0 then -x else x in
      if ax < small_prod_bound then Small (x * x)
      else
        let p = x * x in
        if p <> min_int && p / x = x then Small p
        else demote (normalize 1 (sqr_mag (big_of_int x).mag))
    in
    (match !Fault.current with
     | `Karatsuba_split -> apply_mul_fault a a r
     | _ -> r)
  | Big b ->
    Atomic.incr c_sqr;
    let r = demote (normalize 1 (sqr_mag b.mag)) in
    (match !Fault.current with
     | `Karatsuba_split -> apply_mul_fault a a r
     | _ -> r)

(* The dedicated scalar loop admits any |n| < 2^32: limb*scalar plus
   carry stays below 2^62. *)
let mul_int_bound = 1 lsl 32

let mul_int a n =
  match a with
  | Small _ -> mul a (of_int n)
  | Big b ->
    if n = 0 then Small 0
    else
      let m = if n < 0 then -n else n in
      if m > 0 && m < mul_int_bound then begin
        (* Dedicated small-scalar limb loop: one pass, no intermediate
           bignum for the scalar. *)
        Atomic.incr c_mul_small;
        let la = Array.length b.mag in
        let out = Array.make (la + 2) 0 in
        let carry = ref 0 in
        for i = 0 to la - 1 do
          let cur = (b.mag.(i) * m) + !carry in
          out.(i) <- cur land limb_mask;
          carry := cur lsr limb_bits
        done;
        out.(la) <- !carry land limb_mask;
        out.(la + 1) <- !carry lsr limb_bits;
        demote (normalize (if n < 0 then -b.sign else b.sign) out)
      end
      else mul a (of_int n)

let add_int a n = add a (of_int n)
let succ a = add a one
let pred a = sub a one

(* Division of a magnitude by a single limb [d] (0 < d < base). *)
let divmod_small_mag u d =
  let n = Array.length u in
  let q = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor u.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (q, !rem)

(* Knuth Algorithm D on magnitudes; returns (quotient, remainder).
   Precondition: [Array.length v >= 2], [v] has no leading zero limb. *)
let divmod_knuth u v =
  let n = Array.length v in
  (* Normalize so that the top limb of v has its high bit set. *)
  let rec leading_shift x s = if x land (base lsr 1) <> 0 then s else leading_shift (x lsl 1) (s + 1) in
  let s = leading_shift v.(n - 1) 0 in
  let vn = Array.sub (shift_left_bits v s) 0 n in
  (* The dividend must carry one extra (possibly zero) top limb. *)
  let un =
    let shifted = shift_left_bits u s in
    if Array.length shifted = Array.length u + 1 then shifted
    else Array.append shifted [| 0 |]
  in
  let m = Array.length un - n - 1 in
  let q = Array.make (Stdlib.max (m + 1) 1) 0 in
  for j = m downto 0 do
    let num = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) in
    let rhat = ref (num mod vn.(n - 1)) in
    let continue_ = ref true in
    while
      !continue_
      && (!qhat >= base
          || !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vn.(n - 1);
      if !rhat >= base then continue_ := false
    done;
    (* Multiply and subtract. *)
    let k = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) in
      let t = un.(i + j) - !k - (p land limb_mask) in
      un.(i + j) <- t land limb_mask;
      k := (p lsr limb_bits) - (t asr limb_bits)
    done;
    let t = un.(j + n) - !k in
    un.(j + n) <- t;
    if t < 0 then begin
      (* qhat was one too large: add back. *)
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let t = un.(i + j) + vn.(i) + !carry in
        un.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      un.(j + n) <- un.(j + n) + !carry
    end;
    q.(j) <- !qhat
  done;
  let r = shift_right_bits (Array.sub un 0 n) s in
  (q, r)

let big_divmod a b =
  if a.sign = 0 then (big_zero, big_zero)
  else if compare_mag a.mag b.mag < 0 then (big_zero, a)
  else begin
    Atomic.incr c_divmod;
    let qmag, rmag =
      if Array.length b.mag = 1 then begin
        let q, r = divmod_small_mag a.mag b.mag.(0) in
        (q, if r = 0 then [||] else [| r |])
      end
      else divmod_knuth a.mag b.mag
    in
    let q = normalize (a.sign * b.sign) qmag in
    let r = normalize a.sign rmag in
    (q, r)
  end

let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y ->
    (* Native truncated division; [min_int / -1], the only overflowing
       case, cannot arise because [Small] never holds [min_int]. *)
    (Small (x / y), Small (x mod y))
  | Small x, Big _ ->
    (* A canonical [Big] divisor exceeds any [Small] in magnitude. *)
    (Small 0, Small x)
  | Big _, _ ->
    let q, r = big_divmod (big_of a) (big_of b) in
    (demote q, demote r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e = 1 then mul acc b
    else if e land 1 = 1 then go (mul acc b) (sqr b) (e lsr 1)
    else go acc (sqr b) (e lsr 1)
  in
  go one b e

(* {2 Gcd} *)

let gcd_euclid a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  go (abs a) (abs b)

(* Binary (Stein) gcd on non-negative native ints: shift/subtract only,
   no division, no allocation. *)
let gcd_word x y =
  if x = 0 then y
  else if y = 0 then x
  else begin
    let tz n =
      let rec go n s = if n land 1 = 1 then s else go (n lsr 1) (s + 1) in
      go n 0
    in
    let zx = tz x and zy = tz y in
    let shift = Stdlib.min zx zy in
    let x = ref (x lsr zx) and y = ref (y lsr zy) in
    while !x <> !y do
      if !x > !y then begin
        let d = !x - !y in
        x := d lsr tz d
      end
      else begin
        let d = !y - !x in
        y := d lsr tz d
      end
    done;
    !x lsl shift
  end

(* Hybrid gcd: Euclid division steps shrink multi-limb operands fast
   (a subtraction-only multi-limb Stein loop measured slower at every
   size), then the word-sized binary gcd finishes allocation-free --
   and handles the overwhelmingly common case of [Rational.make]
   normalization directly, since both operands of a reduced rational
   are usually [Small]. *)
let gcd a b =
  match (a, b) with
  | Small 0, _ -> abs b
  | _, Small 0 -> abs a
  | Small x, Small y ->
    Small (gcd_word (if x < 0 then -x else x) (if y < 0 then -y else y))
  | _ ->
    Atomic.incr c_gcd;
    let rec go a b =
      match (a, b) with
      | _, Small 0 -> a
      | Small x, Small y ->
        Small (gcd_word (if x < 0 then -x else x) (if y < 0 then -y else y))
      | _ -> go b (rem a b)
    in
    go (abs a) (abs b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (mul (div a (gcd a b)) b)

let to_int_opt = function
  | Small n -> Some n
  | Big b ->
    (* Canonical [Big]: only [min_int] still fits a native int. *)
    if b.sign < 0
       && Array.length b.mag = 3
       && b.mag.(2) = 1 lsl (62 - (2 * limb_bits))
       && b.mag.(1) = 0
       && b.mag.(0) = 0
    then Some min_int
    else None

let to_int_exn t =
  match to_int_opt t with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: out of native int range"

let to_float = function
  | Small n -> float_of_int n
  | Big b ->
    let basef = float_of_int base in
    let m = Array.fold_right (fun limb acc -> (acc *. basef) +. float_of_int limb) b.mag 0.0 in
    float_of_int b.sign *. m

let chunk_base = 1_000_000_000
let chunk_digits = 9

(* Above this many limbs, string conversion splits around a power of
   10^9 instead of peeling one 9-digit chunk per division. *)
let string_threshold = 30

(* Decimal digits of a small trimmed magnitude via the chunk loop. *)
let small_mag_to_string mag =
  let buf = Buffer.create 32 in
  let rec chunks mag acc =
    if Array.length mag = 0 then acc
    else
      let q, r = divmod_small_mag mag chunk_base in
      chunks (trim q) (r :: acc)
  in
  (match chunks mag [] with
   | [] -> Buffer.add_char buf '0'
   | first :: rest ->
     Buffer.add_string buf (string_of_int first);
     List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%0*d" chunk_digits c)) rest);
  Buffer.contents buf

let add_zeros buf k =
  for _ = 1 to k do
    Buffer.add_char buf '0'
  done

(* Append the decimal digits of [mag], left-padded with zeros to [pad]
   digits when [pad > 0]. Divide-and-conquer: split around the largest
   (10^9)^(2^j) whose limb count is at most half of [mag]'s; the
   remainder then has exactly 9*2^j digit positions. *)
let rec mag_to_digits buf mag pad =
  let mag = trim mag in
  let len = Array.length mag in
  if len = 0 then
    if pad > 0 then add_zeros buf pad else Buffer.add_char buf '0'
  else if len <= string_threshold then begin
    let s = small_mag_to_string mag in
    let sl = String.length s in
    if pad > sl then add_zeros buf (pad - sl);
    Buffer.add_string buf s
  end
  else begin
    let p = ref [| chunk_base |] and pd = ref chunk_digits in
    let prev = ref !p and prevd = ref !pd in
    while 2 * Array.length !p <= len do
      prev := !p;
      prevd := !pd;
      p := trim (sqr_mag !p);
      pd := !pd * 2
    done;
    (* The climb can overshoot [mag] when the top limbs are small; the
       previous power has at most [len/2] limbs so it is always below
       [mag], guaranteeing a non-zero quotient (hence progress). *)
    let p, pd = if compare_mag !p mag <= 0 then (!p, !pd) else (!prev, !prevd) in
    let q, r = divmod_knuth mag p in
    mag_to_digits buf (trim q) (pad - pd);
    mag_to_digits buf r pd
  end

let to_string = function
  | Small n -> string_of_int n
  | Big b ->
    let buf = Buffer.create (Array.length b.mag * 10) in
    if b.sign < 0 then Buffer.add_char buf '-';
    mag_to_digits buf b.mag 0;
    Buffer.contents buf

(* Above this many digits, parsing splits the digit string in half and
   recombines with one multiplication by a power of ten. *)
let of_string_threshold = 256

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  for i = start to len - 1 do
    if not (s.[i] >= '0' && s.[i] <= '9') then
      invalid_arg "Bigint.of_string: invalid character"
  done;
  let int_pow10 e =
    let rec go acc e = if e = 0 then acc else go (acc * 10) (e - 1) in
    go 1 e
  in
  let ten = Small 10 in
  let rec parse off len =
    if len <= of_string_threshold then begin
      let acc = ref zero in
      let i = ref off in
      let stop = off + len in
      while !i < stop do
        let take = Stdlib.min chunk_digits (stop - !i) in
        (* Accumulate the chunk digit by digit: strictly decimal by
           construction on every path, where delegating to
           [int_of_string] would also admit OCaml integer-literal
           syntax (hex/octal/binary prefixes, '_' separators, nested
           signs) if it ever saw unvalidated input. *)
        let part_val = ref 0 in
        for k = !i to !i + take - 1 do
          part_val := (!part_val * 10) + (Char.code s.[k] - Char.code '0')
        done;
        acc := add (mul_int !acc (int_pow10 take)) (Small !part_val);
        i := !i + take
      done;
      !acc
    end
    else begin
      let low_len = len / 2 in
      let high = parse off (len - low_len) in
      let low = parse (off + len - low_len) low_len in
      add (mul high (pow ten low_len)) low
    end
  in
  let v = parse start (len - start) in
  if sign < 0 then neg v else v

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* {2 Multiply-accumulate}

   The convolution inner loop [acc += a*b] is the single hottest
   operation of every DP in this project. Going through [mul] + [add]
   allocates a product magnitude and a fresh sum per term; [Acc]
   instead accumulates limb products into a growable mutable buffer
   (one per sign) and materialises a bigint only once at the end.
   Small/small terms never touch a limb array at all: the native
   product is folded in as a three-limb carry ripple. *)
module Acc = struct
  type buf = { mutable limbs : int array; mutable len : int }

  type acc = { pos : buf; neg : buf }

  let mk_buf hint = { limbs = Array.make (Stdlib.max 4 hint) 0; len = 0 }

  let create ?(hint = 8) () = { pos = mk_buf hint; neg = mk_buf hint }

  let clear_buf buf =
    Array.fill buf.limbs 0 buf.len 0;
    buf.len <- 0

  let clear acc =
    clear_buf acc.pos;
    clear_buf acc.neg

  let ensure buf cap =
    let n = Array.length buf.limbs in
    if cap > n then begin
      let n' = ref (Stdlib.max 4 n) in
      while !n' < cap do
        n' := !n' * 2
      done;
      let limbs = Array.make !n' 0 in
      Array.blit buf.limbs 0 limbs 0 buf.len;
      buf.limbs <- limbs
    end

  (* buf += w, for a native word 0 <= w < 2^62: spread over limbs with
     the carry rippling in place (slots past [len] are zero). *)
  let add_word buf w =
    if w > 0 then begin
      ensure buf (buf.len + 4);
      let limbs = buf.limbs in
      let carry = ref w in
      let i = ref 0 in
      while !carry <> 0 do
        let s = limbs.(!i) + (!carry land limb_mask) in
        limbs.(!i) <- s land limb_mask;
        carry := (!carry lsr limb_bits) + (s lsr limb_bits);
        incr i
      done;
      buf.len <- Stdlib.max buf.len !i
    end

  (* buf += src, where [src] is a working magnitude. *)
  let add_mag_into buf src =
    let el = trim_len src in
    if el > 0 then begin
      ensure buf (Stdlib.max buf.len el + 1);
      let limbs = buf.limbs in
      let carry = ref 0 in
      for i = 0 to el - 1 do
        let s = limbs.(i) + src.(i) + !carry in
        limbs.(i) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let j = ref el in
      while !carry <> 0 do
        let s = limbs.(!j) + !carry in
        limbs.(!j) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr j
      done;
      buf.len <- Stdlib.max buf.len (Stdlib.max !j el)
    end

  (* buf += a*b, schoolbook, directly into the buffer. *)
  let madd buf a b =
    let la = Array.length a and lb = Array.length b in
    ensure buf (Stdlib.max buf.len (la + lb) + 1);
    let limbs = buf.limbs in
    let top = ref 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let cur = limbs.(i + j) + (ai * b.(j)) + !carry in
          limbs.(i + j) <- cur land limb_mask;
          carry := cur lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = limbs.(!k) + !carry in
          limbs.(!k) <- cur land limb_mask;
          carry := cur lsr limb_bits;
          incr k
        done;
        if !k > !top then top := !k
      end
    done;
    buf.len <- Stdlib.max buf.len (Stdlib.max !top (la + lb))

  (* buf += w * src, for a single-limb scalar 0 < w < 2^30: one fused
     pass, no promotion of the small operand and no product bignum. *)
  let madd_word buf w src =
    let ls = Array.length src in
    ensure buf (Stdlib.max buf.len (ls + 1) + 1);
    let limbs = buf.limbs in
    let carry = ref 0 in
    for j = 0 to ls - 1 do
      let cur = limbs.(j) + (w * src.(j)) + !carry in
      limbs.(j) <- cur land limb_mask;
      carry := cur lsr limb_bits
    done;
    let k = ref ls in
    while !carry <> 0 do
      let cur = limbs.(!k) + !carry in
      limbs.(!k) <- cur land limb_mask;
      carry := cur lsr limb_bits;
      incr k
    done;
    buf.len <- Stdlib.max buf.len (Stdlib.max !k ls)

  let add_mul_big acc a b =
    let a = big_of a and b = big_of b in
    let buf = if a.sign * b.sign > 0 then acc.pos else acc.neg in
    let la = Array.length a.mag and lb = Array.length b.mag in
    if Stdlib.min la lb >= Stdlib.max 4 !karatsuba_threshold then
      (* Large operands: compute the product with Karatsuba, then
         fold it into the buffer. *)
      add_mag_into buf (mul_mag a.mag b.mag)
    else madd buf a.mag b.mag

  let add_mul acc a b =
    match (a, b) with
    | Small 0, _ | _, Small 0 -> ()
    | Small x, Small y ->
      Atomic.incr c_acc_mul;
      let ax = if x < 0 then -x else x in
      let ay = if y < 0 then -y else y in
      if ax < small_prod_bound && ay < small_prod_bound then
        add_word (if (x >= 0) = (y >= 0) then acc.pos else acc.neg) (ax * ay)
      else begin
        let p = x * y in
        if p <> min_int && p / y = x then
          add_word
            (if p > 0 then acc.pos else acc.neg)
            (if p < 0 then -p else p)
        else add_mul_big acc a b
      end
    | (Small x, Big b | Big b, Small x) when Stdlib.abs x < 1 lsl limb_bits ->
      (* Mixed small/limb product with a single-limb scalar — the bulk
         shape of dense convolutions over tables holding both small
         edge entries and factorial-scale middles. [x <> 0]: zeros were
         matched above, and [Small] never holds [min_int] so [abs] is
         exact. *)
      Atomic.incr c_acc_mul;
      madd_word
        (if (x >= 0) = (b.sign > 0) then acc.pos else acc.neg)
        (Stdlib.abs x) b.mag
    | _ ->
      if not (is_zero a || is_zero b) then begin
        Atomic.incr c_acc_mul;
        add_mul_big acc a b
      end

  let add acc a =
    match a with
    | Small 0 -> ()
    | Small n ->
      add_word (if n > 0 then acc.pos else acc.neg) (if n < 0 then -n else n)
    | Big b -> add_mag_into (if b.sign > 0 then acc.pos else acc.neg) b.mag

  let buf_mag buf = trim (Array.sub buf.limbs 0 buf.len)

  let value acc =
    let p = buf_mag acc.pos and n = buf_mag acc.neg in
    if Array.length n = 0 then demote (normalize 1 p)
    else if Array.length p = 0 then demote (normalize (-1) n)
    else
      match compare_mag p n with
      | 0 -> zero
      | c when c > 0 -> demote (normalize 1 (sub_mag p n))
      | _ -> demote (normalize (-1) (sub_mag n p))
end

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
