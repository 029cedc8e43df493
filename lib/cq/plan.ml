module Value = Aggshap_relational.Value

(* Which index (if any) an atom is matched through, decided at compile
   time from the binding pattern: a constant position can always be
   probed; a variable position can be probed once an earlier atom binds
   the variable; otherwise the atom falls back to a relation scan. *)
type access =
  | Probe_const of int * Value.t
  | Probe_var of int * string
  | Scan

type step = {
  atom : Cq.atom;
  access : access;
}

type t = {
  query : Cq.t;
  steps : step list;
}

let c_plan_compiles = Atomic.make 0

type stats = { plan_compiles : int }

let stats () = { plan_compiles = Atomic.get c_plan_compiles }
let reset_stats () = Atomic.set c_plan_compiles 0

let bound_positions bound (a : Cq.atom) =
  let n = ref 0 in
  Array.iter
    (fun t ->
      match t with
      | Cq.Const _ -> incr n
      | Cq.Var x -> if List.mem x bound then incr n)
    a.Cq.terms;
  !n

(* The access path for an atom given the variables bound so far:
   prefer a constant position (selective regardless of the prefix),
   then the first position holding a bound variable, else scan. *)
let access_of bound (a : Cq.atom) =
  let n = Array.length a.Cq.terms in
  let rec const_pos i =
    if i >= n then None
    else match a.Cq.terms.(i) with Cq.Const v -> Some (Probe_const (i, v)) | Cq.Var _ -> const_pos (i + 1)
  in
  let rec var_pos i =
    if i >= n then None
    else
      match a.Cq.terms.(i) with
      | Cq.Var x when List.mem x bound -> Some (Probe_var (i, x))
      | _ -> var_pos (i + 1)
  in
  match const_pos 0 with
  | Some p -> p
  | None -> ( match var_pos 0 with Some p -> p | None -> Scan)

let bind bound (a : Cq.atom) =
  Array.fold_left
    (fun acc t ->
      match t with
      | Cq.Var x when not (List.mem x acc) -> x :: acc
      | _ -> acc)
    bound a.Cq.terms

(* Greedy ordering by bound-position count: at each step pick the
   remaining atom with the most bound positions (constants plus
   variables bound by the atoms already placed) — the index
   nested-loop join heuristic. Ties keep body order, so a query whose
   atoms are all unconstrained degrades to exactly the scan
   evaluator's order.
   [?order] overrides the ordering with explicit body indices (used by
   the equivalence suite to pin the evaluator on adversarial plans);
   access-path selection still runs per step. *)
let compile_uncached ?order (q : Cq.t) =
  Atomic.incr c_plan_compiles;
  let atoms = Array.of_list q.Cq.body in
  let picked =
    match order with
    | Some order ->
      if List.sort Int.compare order <> List.init (Array.length atoms) Fun.id then
        invalid_arg "Plan.compile: order is not a permutation of the body";
      order
    | None ->
      let n = Array.length atoms in
      let remaining = ref (List.init n Fun.id) in
      let bound = ref [] in
      let out = ref [] in
      while !remaining <> [] do
        let best =
          List.fold_left
            (fun best i ->
              let score = bound_positions !bound atoms.(i) in
              match best with
              | Some (_, s) when s >= score -> best
              | _ -> Some (i, score))
            None !remaining
        in
        let i = match best with Some (i, _) -> i | None -> assert false in
        out := i :: !out;
        bound := bind !bound atoms.(i);
        remaining := List.filter (fun j -> j <> i) !remaining
      done;
      List.rev !out
  in
  let steps =
    List.rev
      (fst
         (List.fold_left
            (fun (steps, bound) i ->
              let a = atoms.(i) in
              ({ atom = a; access = access_of bound a } :: steps, bind bound a))
            ([], []) picked))
  in
  { query = q; steps }

(* One-slot compile cache keyed by physical equality of the query: the
   hot callers (per-mask naive utilities, per-fact batch loops, the
   answer-value pass) evaluate one query object many times, while the
   engine's substituted sub-queries are fresh values and recompile.
   Racing domains overwrite each other's slot — a benign lost update of
   pure work. Explicit [?order] plans bypass the cache. *)
let last_compiled : (Cq.t * t) option Atomic.t = Atomic.make None

let compile ?order (q : Cq.t) =
  match order with
  | Some _ -> compile_uncached ?order q
  | None -> begin
    match Atomic.get last_compiled with
    | Some (q', plan) when q' == q -> plan
    | _ ->
      let plan = compile_uncached q in
      Atomic.set last_compiled (Some (q, plan));
      plan
  end

let access_to_string = function
  | Probe_const (i, v) -> Printf.sprintf "probe[%d=%s]" i (Value.to_string v)
  | Probe_var (i, x) -> Printf.sprintf "probe[%d=%s]" i x
  | Scan -> "scan"

let to_string plan =
  String.concat " ⋈ "
    (List.map
       (fun s -> Printf.sprintf "%s:%s" s.atom.Cq.rel (access_to_string s.access))
       plan.steps)
