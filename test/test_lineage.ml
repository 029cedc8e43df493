(* Property tests (qcheck) for the knowledge-compilation tier: the
   d-DNNF compiler (component splitting + Shannon expansion) against
   brute-force model counting (≤16 variables), circuit-level Shapley
   against the permutation definition, the one-pass all-player count
   against per-fact conditioning, structural d-DNNF invariants
   (decomposability, determinism, support, split nodes included), the
   formula-keyed cache as a pure optimization, the node budget as a cap
   on compiled nodes, and the whole lineage pipeline against naive
   enumeration on random trials. *)

module B = Aggshap_arith.Bigint
module Combinat = Aggshap_arith.Combinat
module Q = Aggshap_arith.Rational
module F = Aggshap_lineage.Formula
module D = Aggshap_lineage.Ddnnf
module L = Aggshap_lineage.Lineage
module Database = Aggshap_relational.Database
module Agg_query = Aggshap_agg.Agg_query
module Solver = Aggshap_core.Solver
module Naive = Aggshap_core.Naive
module Trial = Aggshap_check.Trial
module Fuzz = Aggshap_check.Fuzz
module Fault = Aggshap_arith.Fault
module Fact = Aggshap_relational.Fact
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Boolean_dp = Aggshap_core.Boolean_dp
module Catalog = Aggshap_workload.Catalog
module Generate = Aggshap_workload.Generate

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Random monotone formulas                                            *)
(* ------------------------------------------------------------------ *)

(* A pure description of a monotone formula, so the reference semantics
   ([eval_fd]) is independent of every simplification [Formula] does
   when the description is interned ([build]). *)
type fd =
  | FTrue
  | FFalse
  | FVar of int
  | FAnd of fd list
  | FOr of fd list

let rec fd_to_string = function
  | FTrue -> "T"
  | FFalse -> "F"
  | FVar v -> Printf.sprintf "x%d" v
  | FAnd fs -> "(" ^ String.concat " & " (List.map fd_to_string fs) ^ ")"
  | FOr fs -> "(" ^ String.concat " | " (List.map fd_to_string fs) ^ ")"

let rec eval_fd a = function
  | FTrue -> true
  | FFalse -> false
  | FVar v -> a v
  | FAnd fs -> List.for_all (eval_fd a) fs
  | FOr fs -> List.exists (eval_fd a) fs

let rec build store = function
  | FTrue -> F.tru store
  | FFalse -> F.fls store
  | FVar v -> F.var store v
  | FAnd fs -> F.and_ store (List.map (build store) fs)
  | FOr fs -> F.or_ store (List.map (build store) fs)

let gen_fd nvars =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (8, map (fun v -> FVar v) (int_range 0 (nvars - 1)));
        (1, return FTrue); (1, return FFalse) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (3, map (fun l -> FAnd l) (list_size (int_range 2 3) (self (depth - 1))));
            (3, map (fun l -> FOr l) (list_size (int_range 2 3) (self (depth - 1)))) ])
    3

(* (number of players, formula over them) *)
let arb_inst lo hi =
  QCheck.make
    ~print:(fun (n, f) -> Printf.sprintf "n=%d %s" n (fd_to_string f))
    QCheck.Gen.(int_range lo hi >>= fun n -> map (fun f -> (n, f)) (gen_fd n))

let popcount mask =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 mask

let mem mask v = mask land (1 lsl v) <> 0

(* Per-size satisfying-subset counts of [fd] over n variables, by
   enumerating all 2^n assignments. *)
let brute_counts n fd =
  let counts = Array.make (n + 1) 0 in
  for mask = 0 to (1 lsl n) - 1 do
    if eval_fd (mem mask) fd then
      counts.(popcount mask) <- counts.(popcount mask) + 1
  done;
  counts

(* The permutation definition of the Shapley value of every player
   p < n in the Boolean game u(S) = 1[fd(S)], as subset sums over one
   truth table. *)
let brute_shapley n fd =
  let table = Array.init (1 lsl n) (fun mask -> eval_fd (mem mask) fd) in
  let fact k =
    let r = ref 1 in
    for i = 2 to k do r := !r * i done;
    !r
  in
  List.init n (fun p ->
      let total = ref Q.zero in
      for mask = 0 to (1 lsl n) - 1 do
        let u1 = table.(mask lor (1 lsl p)) in
        if (not (mem mask p)) && table.(mask) <> u1 then begin
          let s = popcount mask in
          let w = Q.of_ints (fact s * fact (n - 1 - s)) (fact n) in
          total := if u1 then Q.add !total w else Q.sub !total w
        end
      done;
      !total)

(* AND/OR of 2–4 random sub-formulas, each over its own block of 1–4
   variables (≤16 in all): the top connective always has at least two
   variable-disjoint parts, so the compiler emits a split node whenever
   two parts keep their variables. Returns (players, parts, formula). *)
let arb_split =
  let open QCheck.Gen in
  let rec shift off = function
    | FVar v -> FVar (v + off)
    | FAnd fs -> FAnd (List.map (shift off) fs)
    | FOr fs -> FOr (List.map (shift off) fs)
    | (FTrue | FFalse) as c -> c
  in
  let gen =
    int_range 2 4 >>= fun k ->
    list_repeat k (int_range 1 4) >>= fun widths ->
    let offsets = List.rev (snd (List.fold_left (fun (o, acc) w -> (o + w, o :: acc)) (0, []) widths)) in
    flatten_l (List.map2 (fun off w -> map (shift off) (gen_fd w)) offsets widths)
    >>= fun parts ->
    map
      (fun conj -> (List.fold_left ( + ) 0 widths, parts, if conj then FAnd parts else FOr parts))
      bool
  in
  QCheck.make ~print:(fun (n, _, fd) -> Printf.sprintf "n=%d %s" n (fd_to_string fd)) gen

(* ------------------------------------------------------------------ *)
(* Formula layer                                                       *)
(* ------------------------------------------------------------------ *)

let formula_props =
  [ prop "interning: equal descriptions share one id" 300 (arb_inst 1 8)
      (fun (_, fd) ->
        let store = F.create_store () in
        F.id (build store fd) = F.id (build store fd));
    prop "eval agrees with the pure description" 300 (arb_inst 1 10)
      (fun (n, fd) ->
        let store = F.create_store () in
        let f = build store fd in
        let ok = ref true in
        for mask = 0 to (1 lsl n) - 1 do
          if F.eval f (mem mask) <> eval_fd (mem mask) fd then ok := false
        done;
        !ok);
    prop "cofactor is the semantic cofactor" 300 (arb_inst 1 8)
      (fun (n, fd) ->
        let store = F.create_store () in
        let f = build store fd in
        let ok = ref true in
        for v = 0 to n - 1 do
          List.iter
            (fun b ->
              let g = F.cond store f v b in
              if List.mem v (F.vars g) then ok := false;
              for mask = 0 to (1 lsl n) - 1 do
                let a u = if u = v then b else mem mask u in
                if F.eval g (mem mask) <> F.eval f a then ok := false
              done)
            [ true; false ]
        done;
        !ok);
    prop "vars covers the semantic support" 300 (arb_inst 1 8)
      (fun (n, fd) ->
        let store = F.create_store () in
        let f = build store fd in
        let depends v =
          let flips = ref false in
          for mask = 0 to (1 lsl n) - 1 do
            let a0 u = if u = v then false else mem mask u in
            let a1 u = if u = v then true else mem mask u in
            if F.eval f a0 <> F.eval f a1 then flips := true
          done;
          !flips
        in
        (* Simplification may keep a var the semantics ignores (e.g. a
           subsumed minterm's partner), but never drop one it needs. *)
        List.for_all (fun v -> List.mem v (F.vars f)) (List.filter depends (List.init n Fun.id)));
  ]

(* ------------------------------------------------------------------ *)
(* d-DNNF compiler                                                     *)
(* ------------------------------------------------------------------ *)

(* Structural d-DNNF invariants, checked over the whole DAG: a decision
   variable occurs in neither child (decomposability — determinism is
   by the ⟨v,hi,lo⟩ shape), a split node has at least two pairwise
   variable-disjoint, non-constant children, and every recorded support
   is exactly the children's supports (plus the decision variable). *)
let rec circuit_wellformed seen node =
  match node with
  | D.True | D.False -> true
  | D.Decision { id; _ } | D.Split { id; _ } when Hashtbl.mem seen id -> true
  | D.Decision { id; var; hi; lo; _ } ->
    Hashtbl.add seen id ();
    (not (F.ISet.mem var (D.node_vars hi)))
    && (not (F.ISet.mem var (D.node_vars lo)))
    && F.ISet.equal (D.node_vars node)
         (F.ISet.add var (F.ISet.union (D.node_vars hi) (D.node_vars lo)))
    && circuit_wellformed seen hi
    && circuit_wellformed seen lo
  | D.Split { id; children; vars; _ } ->
    Hashtbl.add seen id ();
    let rec disjoint = function
      | [] -> true
      | c :: rest ->
        List.for_all (fun c' -> F.ISet.disjoint (D.node_vars c) (D.node_vars c')) rest
        && disjoint rest
    in
    List.length children >= 2
    && List.for_all (fun c -> not (F.ISet.is_empty (D.node_vars c))) children
    && disjoint children
    && F.ISet.equal vars
         (List.fold_left (fun s c -> F.ISet.union s (D.node_vars c)) F.ISet.empty children)
    && List.for_all (circuit_wellformed seen) children

(* The per-fact reference the one-pass count replaced: condition the
   circuit on [p] and count both cofactors over the other n−1 players. *)
let conditioned_shapley mgr ~n c p =
  let c1 = D.model_counts mgr ~n:(n - 1) (D.condition mgr c p true) in
  let c0 = D.model_counts mgr ~n:(n - 1) (D.condition mgr c p false) in
  let w = Combinat.shapley_weights n in
  let num = ref B.zero in
  for k = 0 to n - 1 do
    num := B.add !num (B.mul w.(k) (B.sub c1.(k) c0.(k)))
  done;
  Q.make !num (Combinat.factorial n)

(* One all-player pass lists exactly the circuit's variables, each with
   its conditioned count difference. *)
let one_pass_matches_conditioning n fd =
  let store = F.create_store () in
  let mgr = D.create store in
  let c = D.compile mgr (build store fd) in
  let all = D.shapley_all mgr ~n c in
  List.map fst all = F.ISet.elements (D.node_vars c)
  && List.for_all (fun (p, v) -> Q.equal v (conditioned_shapley mgr ~n c p)) all

let ddnnf_props =
  [ prop "model counts match brute force (≤10 vars)" 300 (arb_inst 1 10)
      (fun (n, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let counts = D.model_counts mgr ~n c in
        let expected = brute_counts n fd in
        Array.length counts = n + 1
        && Array.for_all2 (fun b e -> B.equal b (B.of_int e)) counts expected);
    prop "model counts match brute force (≤16 vars)" 40 (arb_inst 11 16)
      (fun (n, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let counts = D.model_counts mgr ~n c in
        let expected = brute_counts n fd in
        Array.for_all2 (fun b e -> B.equal b (B.of_int e)) counts expected);
    prop "circuits are decomposable with exact supports" 300 (arb_inst 1 10)
      (fun (_, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        circuit_wellformed (Hashtbl.create 16) (D.compile mgr (build store fd)));
    prop "conditioning removes the variable and fixes it" 200 (arb_inst 1 8)
      (fun (n, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let ok = ref true in
        for v = 0 to n - 1 do
          List.iter
            (fun b ->
              let c' = D.condition mgr c v b in
              if F.ISet.mem v (D.node_vars c') then ok := false;
              (* Counting c' over the other n-1 players must match the
                 brute force of the description with v fixed to b.
                 Reduced player u < v keeps its index; u ≥ v was u+1. *)
              let counts = D.model_counts mgr ~n:(n - 1) c' in
              let expected = Array.make n 0 in
              for mask = 0 to (1 lsl (n - 1)) - 1 do
                let a u = if u = v then b else mem mask (if u < v then u else u - 1) in
                if eval_fd a fd then
                  expected.(popcount mask) <- expected.(popcount mask) + 1
              done;
              if
                not
                  (Array.for_all2 (fun bb e -> B.equal bb (B.of_int e)) counts expected)
              then ok := false)
            [ true; false ]
        done;
        !ok);
    prop "shapley_diff matches the permutation definition" 200 (arb_inst 1 7)
      (fun (n, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        List.for_all2 Q.equal
          (List.init n (fun p -> D.shapley_diff mgr ~n c p))
          (brute_shapley n fd));
    prop "circuit Shapley satisfies efficiency" 200 (arb_inst 1 8)
      (fun (n, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let total = ref Q.zero in
        for p = 0 to n - 1 do
          total := Q.add !total (D.shapley_diff mgr ~n c p)
        done;
        let grand = eval_fd (fun _ -> true) fd and empty = eval_fd (fun _ -> false) fd in
        let expected =
          Q.sub (if grand then Q.one else Q.zero) (if empty then Q.one else Q.zero)
        in
        Q.equal !total expected);
    prop "cache off is semantically identical" 200 (arb_inst 1 9)
      (fun (n, fd) ->
        let store = F.create_store () in
        let cached = D.create ~cache:true store in
        let uncached = D.create ~cache:false store in
        let c1 = D.compile cached (build store fd) in
        let c2 = D.compile uncached (build store fd) in
        let m1 = D.model_counts cached ~n c1 in
        let m2 = D.model_counts uncached ~n c2 in
        Array.for_all2 B.equal m1 m2
        && List.for_all
             (fun p -> Q.equal (D.shapley_diff cached ~n c1 p) (D.shapley_diff uncached ~n c2 p))
             (List.init n Fun.id));
    prop "shapley_all equals the conditioned count difference" 200 (arb_inst 1 10)
      (fun (n, fd) -> one_pass_matches_conditioning n fd);
  ]

(* Unions of variable-disjoint sub-formulas: the split node against the
   same brute-force references. *)
let split_props =
  [ prop "split unions: model counts match brute force (≤16 vars)" 100 arb_split
      (fun (n, _, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let counts = D.model_counts mgr ~n (D.compile mgr (build store fd)) in
        Array.for_all2 (fun b e -> B.equal b (B.of_int e)) counts (brute_counts n fd));
    prop "split unions: Shapley matches the permutation definition" 60 arb_split
      (fun (n, _, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        List.for_all2 Q.equal
          (List.init n (fun p -> D.shapley_diff mgr ~n c p))
          (brute_shapley n fd));
    prop "split unions: well-formed, split at the top" 200 arb_split
      (fun (_, parts, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let live = List.filter (fun p -> F.vars (build store p) <> []) parts in
        let constant_free = List.length live = List.length parts in
        circuit_wellformed (Hashtbl.create 16) c
        && ((not constant_free) || match c with D.Split _ -> true | _ -> false));
    prop "split unions: shapley_all equals the conditioned count difference" 100
      arb_split (fun (n, _, fd) -> one_pass_matches_conditioning n fd);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: lineage pipeline vs naive enumeration                   *)
(* ------------------------------------------------------------------ *)

(* Random oracle trials (the same generator the fuzzer uses): wherever
   the tier applies, Lineage.shapley_all must be exact-rational
   identical to per-fact naive enumeration — inside the frontier
   included. *)
let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let lineage_pipeline_props =
  [ prop "kc equals naive enumeration on random trials" 60 arb_seed (fun seed ->
        let t = Trial.generate ~max_endo:6 ~seed () in
        let a = Trial.agg_query t in
        QCheck.assume (L.supports a.Agg_query.alpha);
        QCheck.assume (Database.endo_size t.Trial.db > 0);
        let kc = L.shapley_all a t.Trial.db in
        let naive =
          List.map (fun f -> (f, Naive.shapley a t.Trial.db f))
            (Database.endogenous t.Trial.db)
        in
        List.length kc = List.length naive
        && List.for_all2
             (fun (f1, v1) (f2, v2) ->
               Aggshap_relational.Fact.equal f1 f2 && Q.equal v1 v2)
             kc naive);
    prop "kc cache on/off bit-identical end to end" 40 arb_seed (fun seed ->
        let t = Trial.generate ~max_endo:6 ~seed () in
        let a = Trial.agg_query t in
        QCheck.assume (L.supports a.Agg_query.alpha);
        let on = L.shapley_all ~cache:true a t.Trial.db in
        let off = L.shapley_all ~cache:false a t.Trial.db in
        List.for_all2
          (fun (f1, v1) (f2, v2) -> Aggshap_relational.Fact.equal f1 f2 && Q.equal v1 v2)
          on off);
    prop "solver dispatch agrees with direct pipeline" 40 arb_seed (fun seed ->
        let t = Trial.generate ~max_endo:6 ~seed () in
        let a = Trial.agg_query t in
        QCheck.assume (not (Solver.within_frontier a.Agg_query.alpha a.Agg_query.query));
        QCheck.assume (L.supports a.Agg_query.alpha);
        QCheck.assume (Database.endo_size t.Trial.db > 0);
        let direct = L.shapley_all a t.Trial.db in
        let dispatched =
          fst (Solver.shapley_all ~fallback:`Knowledge_compilation ~jobs:1 a t.Trial.db)
          |> List.map (fun (f, o) ->
                 match o with
                 | Solver.Exact v -> (f, v)
                 | Solver.Estimate _ -> Alcotest.fail "unexpected estimate")
        in
        List.for_all2
          (fun (f1, v1) (f2, v2) -> Aggshap_relational.Fact.equal f1 f2 && Q.equal v1 v2)
          direct dispatched);
  ]

(* ------------------------------------------------------------------ *)
(* Membership games (Remark 4.5): KC against the Boolean DP            *)
(* ------------------------------------------------------------------ *)

let small_config = { Generate.tuples_per_relation = 3; domain = 3; exo_fraction = 0.3 }

(* Count over a Boolean query is 1 when the query holds and 0
   otherwise: the membership game the Boolean DP solves. *)
let membership q =
  let rel = (List.hd q.Cq.body).Cq.rel in
  Agg_query.make Aggregate.Count (Value_fn.const ~rel Q.one) q

(* The lineage of the single (empty) answer, [False] when the query
   does not hold even on the whole database. *)
let boolean_lineage (x : L.extraction) =
  match x.L.answers with
  | [] -> F.fls x.L.store
  | [ (_, phi) ] -> phi
  | _ -> Alcotest.fail "a Boolean query has at most one answer"

let hierarchical_boolean_catalog () =
  List.filter_map
    (fun (name, query, _) ->
      let q = Cq.make_boolean query in
      if Hierarchy.is_all_hierarchical q then Some (name, query, q) else None)
    Catalog.figure1

let test_membership_shapley () =
  List.iter
    (fun (name, query, q) ->
      for seed = 0 to 4 do
        let db = Generate.random_database ~seed ~config:small_config query in
        List.iter
          (fun (f, v) ->
            let expected = Boolean_dp.shapley q db f in
            if not (Q.equal v expected) then
              Alcotest.failf "%s seed %d: %s kc=%s dp=%s" name seed (Fact.to_string f)
                (Q.to_string v) (Q.to_string expected))
          (L.shapley_all (membership q) db)
      done)
    (hierarchical_boolean_catalog ())

let test_membership_counts () =
  List.iter
    (fun (name, query, q) ->
      for seed = 0 to 4 do
        let db = Generate.random_database ~seed ~config:small_config query in
        let x = L.extract (membership q) db in
        let mgr = D.create x.L.store in
        let n = Array.length x.L.players in
        let from_kc = D.model_counts mgr ~n (D.compile mgr (boolean_lineage x)) in
        let from_dp = Boolean_dp.counts q db in
        Array.iteri
          (fun k c ->
            if not (B.equal c from_kc.(k)) then
              Alcotest.failf "%s seed %d: counts differ at k=%d" name seed k)
          from_dp
      done)
    (hierarchical_boolean_catalog ())

let test_lineage_matches_evaluation () =
  let q = Cq.make_boolean Catalog.q_xyy in
  for seed = 0 to 4 do
    let db = Generate.random_database ~seed ~config:small_config Catalog.q_xyy in
    let x = L.extract (membership q) db in
    let phi = boolean_lineage x in
    let n = Array.length x.L.players in
    let exo = Database.filter (fun _ p -> p = Database.Exogenous) db in
    if n <= 10 then
      for mask = 0 to (1 lsl n) - 1 do
        let sub = ref exo in
        Array.iteri
          (fun i f -> if mem mask i then sub := Database.add f !sub)
          x.L.players;
        let direct = Aggshap_cq.Eval.is_satisfied q !sub in
        if F.eval phi (mem mask) <> direct then
          Alcotest.failf "seed %d mask %d: lineage=%b direct=%b" seed mask (not direct)
            direct
      done
  done

(* ------------------------------------------------------------------ *)
(* The compiler's fault hooks                                          *)
(* ------------------------------------------------------------------ *)

let with_fault fault f =
  assert (!Fault.current = `None);
  Fault.current := fault;
  Fun.protect ~finally:(fun () -> Fault.current := `None) f

let disjoint_pairs = FOr [ FAnd [ FVar 0; FVar 1 ]; FAnd [ FVar 2; FVar 3 ]; FAnd [ FVar 4; FVar 5 ] ]

let counts_of ?cache ?budget n fd =
  let store = F.create_store () in
  let mgr = D.create ?cache ?budget store in
  Array.map B.to_int_exn (D.model_counts mgr ~n (D.compile mgr (build store fd)))

(* [`Ddnnf_cache_poison] corrupts what the formula-keyed cache serves,
   so only the cached compile goes wrong. *)
let test_cache_poison_fault () =
  let expected = brute_counts 6 disjoint_pairs in
  with_fault `Ddnnf_cache_poison (fun () ->
      Alcotest.(check bool) "cached compile is wrong" false
        (counts_of ~cache:true 6 disjoint_pairs = expected);
      Alcotest.(check (array int)) "uncached compile is exact" expected
        (counts_of ~cache:false 6 disjoint_pairs));
  Alcotest.(check (array int)) "cleared: cached compile exact" expected
    (counts_of ~cache:true 6 disjoint_pairs)

(* [`Kc_budget_leak] turns the budget abort into a silent truncation
   that under-counts models. *)
let test_budget_leak_fault () =
  Alcotest.check_raises "clean: the budget aborts" D.Budget_exceeded (fun () ->
      ignore (counts_of ~budget:3 6 disjoint_pairs));
  let total = Array.fold_left ( + ) 0 in
  with_fault `Kc_budget_leak (fun () ->
      let leaked = counts_of ~budget:3 6 disjoint_pairs in
      Alcotest.(check bool) "leaked compile under-counts" true
        (total leaked < total (brute_counts 6 disjoint_pairs)))

(* [`Ddnnf_cache_poison] reaches split nodes too: the OR of three
   disjoint pairs compiles to an OR split, and the poisoned cache
   answers with its connective flipped. *)
let test_cache_poison_flips_splits () =
  let root () =
    let store = F.create_store () in
    let mgr = D.create store in
    D.compile mgr (build store disjoint_pairs)
  in
  let op = function D.Split { op; _ } -> Some op | _ -> None in
  Alcotest.(check bool) "clean root is an OR split" true (op (root ()) = Some D.Disj);
  with_fault `Ddnnf_cache_poison (fun () ->
      Alcotest.(check bool) "poisoned root is an AND split" true
        (op (root ()) = Some D.Conj))

(* ------------------------------------------------------------------ *)
(* The node budget counts compiled nodes only                          *)
(* ------------------------------------------------------------------ *)

(* The nodes compiling [a]'s merged events allocate (shared formulas
   merged, zero-coefficient events dropped), counted on a manager that
   never counts. *)
let compiled_size (a : Agg_query.t) db =
  let x = L.extract a db in
  let mgr = D.create x.L.store in
  let coeffs = Hashtbl.create 16 in
  List.iter
    (fun (c, phi) ->
      let c0 = Option.fold ~none:Q.zero ~some:fst (Hashtbl.find_opt coeffs (F.id phi)) in
      Hashtbl.replace coeffs (F.id phi) (Q.add c0 c, phi))
    (L.events a.Agg_query.alpha x.L.store x.L.answers);
  Hashtbl.iter (fun _ (c, phi) -> if not (Q.is_zero c) then ignore (D.compile mgr phi)) coeffs;
  D.node_count mgr

(* Counting allocates no node: a solve creates exactly the compiled
   nodes, a budget of that size lets it through, and one below it
   aborts a compile. Over the trial generator's supported instances. *)
let test_budget_is_the_compiled_size () =
  let checked = ref 0 in
  for seed = 0 to 59 do
    let t = Trial.generate ~max_endo:8 ~seed () in
    let a = Trial.agg_query t in
    if L.supports a.Agg_query.alpha && Database.endo_size t.Trial.db > 0 then begin
      let nodes = compiled_size a t.Trial.db in
      D.reset_stats ();
      let unbounded = L.shapley_all a t.Trial.db in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: the solve allocates only compiled nodes" seed)
        nodes (D.stats ()).D.nodes;
      if nodes > 0 then begin
        incr checked;
        let bounded =
          try L.shapley_all ~budget:nodes a t.Trial.db
          with D.Budget_exceeded ->
            Alcotest.failf "seed %d: budget %d (the compiled size) aborted" seed nodes
        in
        if not (List.for_all2 (fun (_, v1) (_, v2) -> Q.equal v1 v2) unbounded bounded)
        then Alcotest.failf "seed %d: bounded solve changed a value" seed;
        match L.shapley_all ~budget:(nodes - 1) a t.Trial.db with
        | _ -> Alcotest.failf "seed %d: budget %d ran past the compiled size" seed (nodes - 1)
        | exception D.Budget_exceeded -> ()
      end
    end
  done;
  Alcotest.(check bool) "some instances compiled" true (!checked >= 10)

let () =
  Alcotest.run "lineage"
    [ ("formula", formula_props);
      ("ddnnf", ddnnf_props);
      ("ddnnf split nodes", split_props);
      ("pipeline", lineage_pipeline_props);
      ( "membership (Remark 4.5)",
        [ Alcotest.test_case "count over the Boolean query is the Boolean DP" `Quick
            test_membership_shapley;
          Alcotest.test_case "model counts are the Boolean DP counts" `Quick
            test_membership_counts;
          Alcotest.test_case "lineage evaluates like the query" `Quick
            test_lineage_matches_evaluation;
        ] );
      ( "fault hooks",
        [ Alcotest.test_case "cache poison corrupts cached compiles only" `Quick
            test_cache_poison_fault;
          Alcotest.test_case "cache poison flips a cached split's connective" `Quick
            test_cache_poison_flips_splits;
          Alcotest.test_case "budget leak truncates instead of aborting" `Quick
            test_budget_leak_fault;
        ] );
      ( "node budget",
        [ Alcotest.test_case "a budget of the compiled size completes" `Quick
            test_budget_is_the_compiled_size;
        ] );
    ]
