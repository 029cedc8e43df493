(* d-DNNF circuits by Shannon expansion, and exact weighted model
   counting over them.

   The compiler turns a monotone formula into a decision DAG: node
   ⟨v, hi, lo⟩ denotes (v ∧ hi) ∨ (¬v ∧ lo). Read as a d-DNNF, the OR
   is deterministic (the two disjuncts disagree on v) and the ANDs are
   decomposable (v occurs in neither child — asserted at construction),
   so per-size model counts follow by one bottom-up pass. Nodes are
   hash-consed in a per-manager unique table; compilation results are
   memoized per formula id (the formula-keyed cache — sound because
   {!Formula} interns structurally equal terms to one id).

   Counting works in the "size polynomial" view: a circuit over
   variable set V is mapped to Σ_k c_k x^k with c_k = number of models
   of size k over V. At a decision node the recurrence is

     P(node) = x · P(hi) · (1+x)^gap_hi + P(lo) · (1+x)^gap_lo

   where gap_child = |V| − 1 − |vars(child)| smooths the variables the
   child never mentions (each is free: a factor (1+x)). All arithmetic
   is exact over {!Aggshap_arith.Bigint}. *)

module B = Aggshap_arith.Bigint
module Combinat = Aggshap_arith.Combinat
module Fault = Aggshap_arith.Fault
module Q = Aggshap_arith.Rational
module ISet = Formula.ISet

type node =
  | True
  | False
  | Decision of { id : int; var : int; hi : node; lo : node; vars : ISet.t }

exception Budget_exceeded

(* {1 Instrumentation} *)

let c_nodes = Atomic.make 0
let c_cache_hits = Atomic.make 0
let c_cache_misses = Atomic.make 0
let c_compiles = Atomic.make 0
let c_wmc_passes = Atomic.make 0
let c_budget_aborts = Atomic.make 0

(* Wall-time split between compilation and counting; plain refs (the
   knowledge-compilation tier runs in the calling domain). *)
let t_compile = ref 0.0
let t_wmc = ref 0.0

type stats = {
  nodes : int;  (* decision nodes created (after hash-consing) *)
  cache_hits : int;  (* formula-keyed cache hits *)
  cache_misses : int;  (* sub-formulas actually expanded *)
  compiles : int;  (* circuits compiled *)
  wmc_passes : int;  (* per-fact conditioned counting passes *)
  budget_aborts : int;  (* compilations aborted at the node budget *)
  compile_s : float;  (* time spent compiling *)
  wmc_s : float;  (* time spent counting *)
}

let stats () =
  { nodes = Atomic.get c_nodes;
    cache_hits = Atomic.get c_cache_hits;
    cache_misses = Atomic.get c_cache_misses;
    compiles = Atomic.get c_compiles;
    wmc_passes = Atomic.get c_wmc_passes;
    budget_aborts = Atomic.get c_budget_aborts;
    compile_s = !t_compile;
    wmc_s = !t_wmc }

let reset_stats () =
  Atomic.set c_nodes 0;
  Atomic.set c_cache_hits 0;
  Atomic.set c_cache_misses 0;
  Atomic.set c_compiles 0;
  Atomic.set c_wmc_passes 0;
  Atomic.set c_budget_aborts 0;
  t_compile := 0.0;
  t_wmc := 0.0

let timed cell f =
  let t0 = Sys.time () in
  Fun.protect ~finally:(fun () -> cell := !cell +. (Sys.time () -. t0)) f

type manager = {
  store : Formula.store;
  use_cache : bool;
  budget : int option;  (* max decision nodes before Budget_exceeded *)
  unique : (int * int * int, node) Hashtbl.t;  (* (var, hi, lo) -> node *)
  compile_cache : (int, node) Hashtbl.t;  (* formula id -> circuit *)
  count_memo : (int, B.t array) Hashtbl.t;  (* node id -> size polynomial *)
  mutable next_id : int;
}

let create ?(cache = true) ?budget store =
  { store; use_cache = cache; budget; unique = Hashtbl.create 256;
    compile_cache = Hashtbl.create 256; count_memo = Hashtbl.create 256;
    next_id = 0 }

let node_id = function True -> -1 | False -> -2 | Decision d -> d.id
let node_vars = function True | False -> ISet.empty | Decision d -> d.vars
let size = function True | False -> 0 | Decision d -> ISet.cardinal d.vars

(* Decision-node constructor: collapses trivial decisions and enforces
   decomposability (the branch variable below its own decision would
   make the implicit ANDs overlap). Determinism needs no check — the
   v / ¬v guards are disjoint by construction. *)
let mk mgr var hi lo =
  if node_id hi = node_id lo then hi
  else begin
    if ISet.mem var (node_vars hi) || ISet.mem var (node_vars lo) then
      invalid_arg "Ddnnf.mk: decision variable reappears below its node";
    let key = (var, node_id hi, node_id lo) in
    match Hashtbl.find_opt mgr.unique key with
    | Some n -> n
    | None ->
      (* The node budget caps the circuit before the next allocation,
         mirroring the Int_overflow abort-and-retry in Tables.convolve:
         the caller catches Budget_exceeded and falls back to the
         planner's next tier. Under [`Kc_budget_leak] the guard is
         silently skipped (see {!expand}). *)
      (match mgr.budget with
      | Some b when mgr.next_id >= b && !Fault.current <> `Kc_budget_leak ->
        Atomic.incr c_budget_aborts;
        raise_notrace Budget_exceeded
      | _ -> ());
      let vars = ISet.add var (ISet.union (node_vars hi) (node_vars lo)) in
      let n = Decision { id = mgr.next_id; var; hi; lo; vars } in
      mgr.next_id <- mgr.next_id + 1;
      Atomic.incr c_nodes;
      Hashtbl.add mgr.unique key n;
      n
  end

(* Shannon expansion with the formula-keyed cache. Under the
   [`Ddnnf_cache_poison] fault the entry stored (and returned) for a
   non-trivial decision swaps its children — the cache now answers with
   a semantically wrong circuit, exactly the corruption the
   differential oracle must catch. With the cache disabled the fault
   has nothing to poison and compilation stays correct.

   Under [`Kc_budget_leak] the node-budget abort path is broken the
   quietest way possible: instead of raising {!Budget_exceeded} the
   compiler hands back the partial circuit it had built, truncating
   every sub-formula reached after a small node count to [False]. The
   result under-counts models, so the values drift low — wrong answers
   the kc-vs-naive differential check must catch and shrink. *)
let rec expand mgr f =
  if Formula.is_true f then True
  else if Formula.is_false f then False
  else if !Fault.current = `Kc_budget_leak && mgr.next_id > 4 then False
  else begin
    let fid = Formula.id f in
    match
      if mgr.use_cache then Hashtbl.find_opt mgr.compile_cache fid else None
    with
    | Some n ->
      Atomic.incr c_cache_hits;
      n
    | None ->
      Atomic.incr c_cache_misses;
      let v =
        match Formula.pick_var f with
        | Some v -> v
        | None -> invalid_arg "Ddnnf.compile: non-constant formula without variables"
      in
      let hi = expand mgr (Formula.cond mgr.store f v true) in
      let lo = expand mgr (Formula.cond mgr.store f v false) in
      let n = mk mgr v hi lo in
      if mgr.use_cache then begin
        let stored =
          match (!Fault.current, n) with
          | `Ddnnf_cache_poison, Decision d -> mk mgr d.var d.lo d.hi
          | _ -> n
        in
        Hashtbl.add mgr.compile_cache fid stored;
        stored
      end
      else n
  end

let compile mgr f =
  Atomic.incr c_compiles;
  timed t_compile (fun () -> expand mgr f)

(* {1 Weighted model counting} *)

(* Exact polynomial product (coefficients are model counts, degrees are
   subset sizes; lengths stay ≤ n+1). *)
let poly_mul a b =
  let la = Array.length a and lb = Array.length b in
  let res = Array.make (la + lb - 1) B.zero in
  for i = 0 to la - 1 do
    if not (B.is_zero a.(i)) then
      for j = 0 to lb - 1 do
        res.(i + j) <- B.add res.(i + j) (B.mul a.(i) b.(j))
      done
  done;
  res

(* Smoothing: each variable of the ground set the sub-circuit never
   mentions is free — a factor (1+x), i.e. one binomial row. *)
let lift p gap =
  if gap = 0 then p
  else if gap < 0 then invalid_arg "Ddnnf.lift: negative smoothing gap"
  else poly_mul p (Combinat.binomial_row gap)

let rec polynomial mgr node =
  match node with
  | True -> [| B.one |]
  | False -> [| B.zero |]
  | Decision d -> (
    match Hashtbl.find_opt mgr.count_memo d.id with
    | Some p -> p
    | None ->
      let sv = ISet.cardinal d.vars in
      let p_hi = lift (polynomial mgr d.hi) (sv - 1 - size d.hi) in
      let p_lo = lift (polynomial mgr d.lo) (sv - 1 - size d.lo) in
      let res = Array.make (sv + 1) B.zero in
      Array.iteri (fun i c -> res.(i + 1) <- c) p_hi;
      Array.iteri (fun i c -> res.(i) <- B.add res.(i) c) p_lo;
      Hashtbl.add mgr.count_memo d.id res;
      res)

(* [model_counts mgr ~n node] is [|c_0; ...; c_n|]: c_k = number of
   size-k subsets of the n-variable ground set satisfying the circuit
   (variables outside vars(node) free). *)
let model_counts mgr ~n node =
  let gap = n - ISet.cardinal (node_vars node) in
  match node with
  | False -> Array.make (n + 1) B.zero
  | _ -> lift (polynomial mgr node) gap

(* Conditioning on one variable: O(|circuit|) rebuild replacing every
   decision on v by the chosen child (memoized per traversal; the
   result shares the manager's unique table, so its polynomials land in
   the shared counting memo). *)
let condition mgr node v b =
  let memo = Hashtbl.create 64 in
  let rec go node =
    match node with
    | True | False -> node
    | Decision d ->
      if not (ISet.mem v d.vars) then node
      else if d.var = v then (if b then d.hi else d.lo)
      else begin
        match Hashtbl.find_opt memo d.id with
        | Some m -> m
        | None ->
          let m = mk mgr d.var (go d.hi) (go d.lo) in
          Hashtbl.add memo d.id m;
          m
      end
  in
  go node

(* The Boolean-event Shapley difference for player p over a ground set
   of n players:

     φ_p = Σ_{k=0}^{n-1} w_k (C1_k − C0_k) / n!

   with w_k = k!(n−k−1)! ({!Combinat.shapley_weights}) and C1/C0 the
   per-size model counts of the circuit conditioned on p over the
   remaining n−1 players. A player outside the circuit's variables is a
   null player of the event: both cofactors coincide and the value is
   exactly zero, no counting pass needed. *)
let shapley_diff mgr ~n node p =
  if not (ISet.mem p (node_vars node)) then Q.zero
  else
    timed t_wmc (fun () ->
        Atomic.incr c_wmc_passes;
        let c1 = model_counts mgr ~n:(n - 1) (condition mgr node p true) in
        let c0 = model_counts mgr ~n:(n - 1) (condition mgr node p false) in
        let w = Combinat.shapley_weights n in
        let acc = B.Acc.create () in
        for k = 0 to n - 1 do
          B.Acc.add_mul acc w.(k) (B.sub c1.(k) c0.(k))
        done;
        Q.make (B.Acc.value acc) (Combinat.factorial n))

let node_count mgr = mgr.next_id
