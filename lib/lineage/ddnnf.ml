(* d-DNNF circuits by component splitting and Shannon expansion, and
   exact weighted model counting over them.

   The compiler turns a monotone formula into a DAG of two node kinds.
   A decision node ⟨v, hi, lo⟩ denotes (v ∧ hi) ∨ (¬v ∧ lo): the OR is
   deterministic (the two disjuncts disagree on v) and the ANDs are
   decomposable (v occurs in neither child — asserted at construction).
   A split node is the AND or the OR of two or more pairwise
   variable-disjoint children (asserted at construction too). Before
   Shannon-expanding an And/Or formula the compiler groups its children
   into variable-disjoint components; two or more components compile
   independently under one split node, so a read-once formula compiles
   to a circuit of linear size. Nodes are hash-consed in per-manager
   unique tables; compilation results are memoized per formula id (the
   formula-keyed cache — sound because {!Formula} interns structurally
   equal terms to one id).

   Counting works in the "size polynomial" view: a circuit over
   variable set V is mapped to Σ_k c_k x^k with c_k = number of models
   of size k over V. Writing B_k = (1+x)^k for the binomial row, the
   bottom-up recurrences are

     decision   P = x · P(hi) · B_gap_hi + P(lo) · B_gap_lo
     AND split  P = Π P_i
     OR split   P = B_|V| − Π (B_|V_i| − P_i)

   where gap_child = |V| − 1 − |vars(child)| smooths the variables the
   child never mentions (each is free: a factor (1+x)). The Shapley
   value of every player follows from one more, top-down pass over the
   same polynomials ({!shapley_all}). All arithmetic is exact over
   {!Aggshap_arith.Bigint}. *)

module B = Aggshap_arith.Bigint
module Combinat = Aggshap_arith.Combinat
module Fault = Aggshap_arith.Fault
module Q = Aggshap_arith.Rational
module ISet = Formula.ISet

type op = Conj | Disj

type node =
  | True
  | False
  | Decision of { id : int; var : int; hi : node; lo : node; vars : ISet.t }
  | Split of { id : int; op : op; children : node list; vars : ISet.t }

exception Budget_exceeded

(* {1 Instrumentation} *)

let c_nodes = Atomic.make 0
let c_cache_hits = Atomic.make 0
let c_cache_misses = Atomic.make 0
let c_compiles = Atomic.make 0
let c_wmc_passes = Atomic.make 0
let c_budget_aborts = Atomic.make 0

(* CPU-time split (Sys.time) between compilation and counting; plain
   refs (the knowledge-compilation tier runs in the calling domain). *)
let t_compile = ref 0.0
let t_wmc = ref 0.0

type stats = {
  nodes : int;  (* decision and split nodes created (after hash-consing) *)
  cache_hits : int;  (* formula-keyed cache hits *)
  cache_misses : int;  (* sub-formulas actually expanded *)
  compiles : int;  (* circuits compiled *)
  wmc_passes : int;  (* one all-player pass per compiled event *)
  budget_aborts : int;  (* compilations aborted at the node budget *)
  compile_s : float;  (* CPU time spent compiling *)
  wmc_s : float;  (* CPU time spent counting *)
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
  budget : int option;  (* max compiled nodes before Budget_exceeded *)
  unique : (int * int * int, node) Hashtbl.t;  (* (var, hi, lo) -> node *)
  split_unique : (op * int list, node) Hashtbl.t;  (* (op, children) -> node *)
  compile_cache : (int, node) Hashtbl.t;  (* formula id -> circuit *)
  count_memo : (int, B.t array) Hashtbl.t;  (* node id -> size polynomial *)
  shapley_memo : (int * int, (int * Q.t) list) Hashtbl.t;
      (* (node id, n) -> every player's value, from one pass *)
  mutable next_id : int;
}

let create ?(cache = true) ?budget store =
  { store; use_cache = cache; budget; unique = Hashtbl.create 256;
    split_unique = Hashtbl.create 64; compile_cache = Hashtbl.create 256;
    count_memo = Hashtbl.create 256; shapley_memo = Hashtbl.create 16;
    next_id = 0 }

let node_id = function
  | True -> -1
  | False -> -2
  | Decision { id; _ } | Split { id; _ } -> id

let node_vars = function
  | True | False -> ISet.empty
  | Decision { vars; _ } | Split { vars; _ } -> vars

let size node = ISet.cardinal (node_vars node)

(* The next node id. The node budget caps the circuit before the
   allocation, mirroring the Int_overflow abort-and-retry in
   Tables.convolve: the caller catches Budget_exceeded and falls back
   to the planner's next tier. Under [`Kc_budget_leak] the guard is
   silently skipped (see {!expand}). *)
let alloc mgr =
  (match mgr.budget with
  | Some b when mgr.next_id >= b && !Fault.current <> `Kc_budget_leak ->
    Atomic.incr c_budget_aborts;
    raise_notrace Budget_exceeded
  | _ -> ());
  let id = mgr.next_id in
  mgr.next_id <- id + 1;
  Atomic.incr c_nodes;
  id

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
      let vars = ISet.add var (ISet.union (node_vars hi) (node_vars lo)) in
      let n = Decision { id = alloc mgr; var; hi; lo; vars } in
      Hashtbl.add mgr.unique key n;
      n
  end

(* Split-node constructor: folds constant children away (the identity
   drops, the annihilator wins), collapses a single child, orders the
   children by id for hash-consing, and enforces decomposability — the
   children's supports must be pairwise disjoint. *)
let mk_split mgr op children =
  let unit_, zero = match op with Conj -> (True, False) | Disj -> (False, True) in
  if List.exists (fun c -> node_id c = node_id zero) children then zero
  else
    match
      List.sort_uniq
        (fun a b -> compare (node_id a) (node_id b))
        (List.filter (fun c -> node_id c <> node_id unit_) children)
    with
    | [] -> unit_
    | [ c ] -> c
    | children -> (
      let vars = List.fold_left (fun s c -> ISet.union s (node_vars c)) ISet.empty children in
      if ISet.cardinal vars <> List.fold_left (fun s c -> s + size c) 0 children then
        invalid_arg "Ddnnf.mk_split: children share a variable";
      let key = (op, List.map node_id children) in
      match Hashtbl.find_opt mgr.split_unique key with
      | Some n -> n
      | None ->
        let n = Split { id = alloc mgr; op; children; vars } in
        Hashtbl.add mgr.split_unique key n;
        n)

(* The children of an And/Or formula grouped into variable-disjoint
   components: union-find over child positions, joined through shared
   variables. [None] when the children form one component. *)
let disjoint_groups xs =
  let xs = Array.of_list xs in
  let parent = Array.init (Array.length xs) Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let owner = Hashtbl.create 16 in
  Array.iteri
    (fun i x ->
      ISet.iter
        (fun v ->
          match Hashtbl.find_opt owner v with
          | None -> Hashtbl.add owner v i
          | Some j ->
            let a = find i and b = find j in
            if a <> b then parent.(a) <- b)
        (Formula.var_set x))
    xs;
  let groups = Array.make (Array.length xs) [] in
  for i = Array.length xs - 1 downto 0 do
    let r = find i in
    groups.(r) <- xs.(i) :: groups.(r)
  done;
  match List.filter (function [] -> false | _ -> true) (Array.to_list groups) with
  | [] | [ _ ] -> None
  | groups -> Some groups

(* [f]'s components, each re-interned as a sub-formula so the compile
   cache sees it, under the connective that joins them. *)
let components store f =
  let split op join xs =
    Option.map (fun groups -> (op, List.map (join store) groups)) (disjoint_groups xs)
  in
  match Formula.view f with
  | Formula.And xs -> split Conj Formula.and_ xs
  | Formula.Or xs -> split Disj Formula.or_ xs
  | Formula.True | Formula.False | Formula.Var _ -> None

(* Component splitting, else Shannon expansion, with the formula-keyed
   cache. Under the [`Ddnnf_cache_poison] fault the entry stored (and
   returned) for a non-trivial node is corrupted — a decision swaps its
   children, a split flips its connective — so the cache answers with a
   semantically wrong circuit, exactly the corruption the differential
   oracle must catch. With the cache disabled the fault has nothing to
   poison and compilation stays correct.

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
      let n =
        match components mgr.store f with
        | Some (op, parts) -> mk_split mgr op (List.map (expand mgr) parts)
        | None ->
          let v =
            match Formula.pick_var f with
            | Some v -> v
            | None -> invalid_arg "Ddnnf.compile: non-constant formula without variables"
          in
          let hi = expand mgr (Formula.cond mgr.store f v true) in
          let lo = expand mgr (Formula.cond mgr.store f v false) in
          mk mgr v hi lo
      in
      if mgr.use_cache then begin
        let stored =
          match (!Fault.current, n) with
          | `Ddnnf_cache_poison, Decision d -> mk mgr d.var d.lo d.hi
          | `Ddnnf_cache_poison, Split s ->
            mk_split mgr (match s.op with Conj -> Disj | Disj -> Conj) s.children
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

(* [a − b] for polynomials of equal length. *)
let poly_sub a b = Array.map2 B.sub a b

(* [acc + a] in place; [a] no longer than [acc]. *)
let poly_add_into acc a = Array.iteri (fun i c -> acc.(i) <- B.add acc.(i) c) a

(* [tbl.(key) += p] over private copies: the entry grows when [p] is
   the longer one (a hi-edge raises the degree bound by one). *)
let accumulate tbl key p =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.add tbl key (Array.copy p)
  | Some acc when Array.length acc >= Array.length p -> poly_add_into acc p
  | Some acc ->
    let grown = Array.copy p in
    poly_add_into grown acc;
    Hashtbl.replace tbl key grown

(* Smoothing: each variable of the ground set the sub-circuit never
   mentions is free — a factor (1+x), i.e. one binomial row. *)
let lift p gap =
  if gap = 0 then p
  else if gap < 0 then invalid_arg "Ddnnf.lift: negative smoothing gap"
  else poly_mul p (Combinat.binomial_row gap)

(* The polynomial a split combines for child [c]: P(c) itself under
   AND, its complement B_|vars c| − P(c) under OR. *)
let rec factor mgr op c =
  match op with
  | Conj -> polynomial mgr c
  | Disj -> poly_sub (Combinat.binomial_row (size c)) (polynomial mgr c)

and polynomial mgr node =
  match node with
  | True -> [| B.one |]
  | False -> [| B.zero |]
  | Decision { id; _ } | Split { id; _ } -> (
    match Hashtbl.find_opt mgr.count_memo id with
    | Some p -> p
    | None ->
      let res =
        match node with
        | Decision d ->
          let sv = ISet.cardinal d.vars in
          let p_hi = lift (polynomial mgr d.hi) (sv - 1 - size d.hi) in
          let p_lo = lift (polynomial mgr d.lo) (sv - 1 - size d.lo) in
          let res = Array.make (sv + 1) B.zero in
          Array.iteri (fun i c -> res.(i + 1) <- c) p_hi;
          poly_add_into res p_lo;
          res
        | Split s -> (
          let prod =
            List.fold_left
              (fun acc c -> poly_mul acc (factor mgr s.op c))
              [| B.one |] s.children
          in
          match s.op with
          | Conj -> prod
          | Disj -> poly_sub (Combinat.binomial_row (ISet.cardinal s.vars)) prod)
        | True | False -> assert false
      in
      Hashtbl.add mgr.count_memo id res;
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
   result shares the manager's unique tables, so its polynomials land
   in the shared counting memo). The reference {!shapley_all} is
   tested against; the solver never conditions. *)
let condition mgr node v b =
  let memo = Hashtbl.create 64 in
  let rec go node =
    if not (ISet.mem v (node_vars node)) then node
    else
      match node with
      | Decision d when d.var = v -> if b then d.hi else d.lo
      | _ -> (
        match Hashtbl.find_opt memo (node_id node) with
        | Some m -> m
        | None ->
          let m =
            match node with
            | Decision d -> mk mgr d.var (go d.hi) (go d.lo)
            | Split s -> mk_split mgr s.op (List.map go s.children)
            | True | False -> node
          in
          Hashtbl.add memo (node_id node) m;
          m)
  in
  go node

(* [leave_one_out m qs] is [|m · Π_{j≠i} qs.(j)|] for every i, by
   recursive halving: each half inherits [m] times the other half's
   product, so a k-way split takes O(k log k) polynomial products where
   multiplying out every child's siblings separately takes O(k²). *)
let leave_one_out m qs =
  let out = Array.make (Array.length qs) m in
  let range lo hi =
    let acc = ref [| B.one |] in
    for j = lo to hi - 1 do acc := poly_mul !acc qs.(j) done;
    !acc
  in
  let rec go m lo hi =
    if hi - lo = 1 then out.(lo) <- m
    else begin
      let mid = (lo + hi) / 2 in
      go (poly_mul m (range mid hi)) lo mid;
      go (poly_mul m (range lo mid)) mid hi
    end
  in
  go m 0 (Array.length qs);
  out

(* Every player's Boolean-event Shapley value from one top-down pass.

   Give each variable v a literal weight pair (w_v⁺, w_v⁻); the weighted
   count W of the smoothed circuit is linear in the pair of any one
   player p, W = w_p⁺·A + w_p⁻·B, and at w⁺ = x, w⁻ = 1 the coefficients
   of A − B are exactly the per-size count differences C1_k − C0_k over
   the other n−1 players. The operator δ_p = ∂/∂w_p⁺ − ∂/∂w_p⁻ is a
   derivation that kills every smoothing factor (1+x) — δ_p(w⁺+w⁻) = 0
   — so by the chain rule

     C1 − C0 = Σ_{decisions d on p} R(d) · (lift P(hi) − lift P(lo))

   where the path polynomial R(u) = ∂W/∂P(u) is accumulated top-down:
   R(root) = B_{n−|V_root|}; a decision passes R·x·B_gap_hi to hi and
   R·B_gap_lo to lo; an AND split passes R·Π_{j≠i} P_j to child i and
   an OR split R·Π_{j≠i} (B_|V_j| − P_j) (δ of B_|V| − Π(B_j − P_j) is
   Σ_i δP_i · Π_{j≠i}(B_j − P_j)). Children always carry smaller ids
   than their parents, so descending id order is a topological order.
   Then φ_p = Σ_{k=0}^{n-1} w_k (C1_k − C0_k) / n! with w_k = k!(n−k−1)!
   ({!Combinat.shapley_weights}). Players outside the circuit's
   variables are null players of the event and are not listed. *)
let compute_shapley_all mgr ~n root =
  let internal = function Decision _ | Split _ -> true | True | False -> false in
  let nodes = Hashtbl.create 64 in
  let rec collect node =
    if internal node && not (Hashtbl.mem nodes (node_id node)) then begin
      Hashtbl.add nodes (node_id node) node;
      match node with
      | Decision d -> collect d.hi; collect d.lo
      | Split s -> List.iter collect s.children
      | True | False -> ()
    end
  in
  collect root;
  let order =
    List.sort (fun a b -> compare (node_id b) (node_id a))
      (Hashtbl.fold (fun _ node acc -> node :: acc) nodes [])
  in
  let paths = Hashtbl.create 64 in
  let push node r = if internal node then accumulate paths (node_id node) r in
  if internal root then push root (Combinat.binomial_row (n - size root));
  let diffs = Hashtbl.create 16 in
  List.iter
    (fun node ->
      let r = Hashtbl.find paths (node_id node) in
      match node with
      | Decision d ->
        let sv = ISet.cardinal d.vars in
        let gap_hi = sv - 1 - size d.hi and gap_lo = sv - 1 - size d.lo in
        accumulate diffs d.var
          (poly_mul r
             (poly_sub (lift (polynomial mgr d.hi) gap_hi) (lift (polynomial mgr d.lo) gap_lo)));
        push d.hi (Array.append [| B.zero |] (lift r gap_hi));
        push d.lo (lift r gap_lo)
      | Split s ->
        let qs = Array.of_list (List.map (factor mgr s.op) s.children) in
        let rs = leave_one_out r qs in
        List.iteri (fun i c -> push c rs.(i)) s.children
      | True | False -> ())
    order;
  let w = Combinat.shapley_weights n in
  let denom = Combinat.factorial n in
  Hashtbl.fold (fun p d acc -> (p, d) :: acc) diffs []
  |> List.sort (fun (p, _) (q, _) -> compare p q)
  |> List.map (fun (p, d) ->
         let acc = B.Acc.create () in
         Array.iteri (fun k c -> B.Acc.add_mul acc w.(k) c) d;
         (p, Q.make (B.Acc.value acc) denom))

let shapley_all mgr ~n node =
  let key = (node_id node, n) in
  match Hashtbl.find_opt mgr.shapley_memo key with
  | Some values -> values
  | None ->
    let values =
      timed t_wmc (fun () ->
          Atomic.incr c_wmc_passes;
          compute_shapley_all mgr ~n node)
    in
    Hashtbl.add mgr.shapley_memo key values;
    values

let shapley_diff mgr ~n node p =
  if not (ISet.mem p (node_vars node)) then Q.zero
  else Option.value (List.assoc_opt p (shapley_all mgr ~n node)) ~default:Q.zero

let node_count mgr = mgr.next_id
