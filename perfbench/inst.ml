(* Seeded input generators for the benchmark workloads.

   Everything the program under test sees comes from here: a query, an
   aggregate, a value-function spec, an optional fallback, and database
   text. Each instance is a fixed shape (which facts join, which are
   exogenous), one per menu variant, and the seed draws its constants:
   an order-preserving relabelling with random gaps. The same seed gives
   the same inputs; another seed gives other constants, other τ-values
   and other answers, but the same amount of work, so the figures of
   different seeds can be compared. *)

type instance = {
  name : string;  (** menu entry *)
  query : string;
  agg : string;
  tau : string;
  fallback : string option;  (** [Some "auto"] beyond the frontier *)
  db : string;  (** database text, one fact per line *)
}

let sprintf = Printf.sprintf

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* Shapes                                                              *)
(* ------------------------------------------------------------------ *)

(* A shape: relation, integer arguments and whether the fact is
   exogenous. *)
type fact = { rel : string; args : int list; exo : bool }

(* Marks [exo] facts, chosen by [st], exogenous. *)
let with_exo st ~exo facts =
  let a = Array.of_list facts in
  let idx = Array.init (Array.length a) Fun.id in
  shuffle st idx;
  let mark = Array.make (Array.length a) false in
  for i = 0 to min exo (Array.length a) - 1 do
    mark.(idx.(i)) <- true
  done;
  Array.to_list (Array.mapi (fun i (rel, args) -> { rel; args; exo = mark.(i) }) a)

let isqrt n = max 2 (int_of_float (Float.round (sqrt (float_of_int n))))

(* [R(x, y), S(y)]: [n] R-facts over 3n/4 answers (a quarter of the
   answers has a second witness) spread over about √n join groups. *)
let xyy st ~n =
  let g = isqrt n and m = max 1 (3 * n / 4) in
  let group = Array.init m (fun _ -> Random.State.int st g) in
  let twice = Array.init m Fun.id in
  shuffle st twice;
  let r =
    List.init m (fun a -> ("R", [ a; group.(a) ]))
    @ List.init (n - m) (fun k ->
          let a = twice.(k) in
          ("R", [ a; (group.(a) + 1 + Random.State.int st (g - 1)) mod g ]))
  in
  with_exo st ~exo:(n / 10) (r @ List.init g (fun j -> ("S", [ j ])))

(* [R(x, y), S(x)]: [n] R-facts over n/3 answers. *)
let q1sq st ~n =
  let g = max 2 (n / 3) in
  let ys = Array.init n Fun.id in
  shuffle st ys;
  with_exo st ~exo:(n / 10)
    (List.init n (fun i -> ("R", [ i mod g; ys.(i) ])) @ List.init g (fun j -> ("S", [ j ])))

(* [R(x), S(x, y), T(y)]: [n] distinct S-cells of a g×g grid. *)
let exists st ~n =
  let g = max 2 (int_of_float (ceil (sqrt (float_of_int (2 * n))))) in
  let cells = Array.init (g * g) Fun.id in
  shuffle st cells;
  with_exo st ~exo:(n / 10)
    (List.init g (fun i -> ("R", [ i ]))
    @ List.init n (fun k -> ("S", [ cells.(k) / g; cells.(k) mod g ]))
    @ List.init g (fun j -> ("T", [ j ])))

(* The RST family beyond every frontier: [m] R- and S-facts, a perfect
   matching of T-edges plus [cross] extra edges. *)
let rst st ~m ~cross ~exo =
  let perm = Array.init m Fun.id in
  shuffle st perm;
  let edges = Hashtbl.create 8 in
  while Hashtbl.length edges < cross do
    let a = Random.State.int st m and b = Random.State.int st m in
    if b <> perm.(a) then Hashtbl.replace edges (a, b) ()
  done;
  let extra = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges []) in
  with_exo st ~exo
    (List.init m (fun i -> ("R", [ i ]))
    @ List.init m (fun j -> ("S", [ j ]))
    @ List.init m (fun i -> ("T", [ i; perm.(i) ]))
    @ List.map (fun (a, b) -> ("T", [ a; b ])) extra)

(* ------------------------------------------------------------------ *)
(* Constants                                                           *)
(* ------------------------------------------------------------------ *)

(* An order-preserving map of 0..[max] onto constants with random gaps:
   joins, comparisons and sort orders are those of the shape. *)
let relabel st max =
  let a = Array.make (max + 1) 0 in
  let v = ref (Random.State.int st 4) in
  for c = 0 to max do
    a.(c) <- !v;
    v := !v + 1 + Random.State.int st 4
  done;
  fun c -> a.(c)

let render label facts =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string b f.rel;
      Buffer.add_char b '(';
      Buffer.add_string b (String.concat ", " (List.map (fun c -> string_of_int (label c)) f.args));
      Buffer.add_char b ')';
      if f.exo then Buffer.add_string b " @exo";
      Buffer.add_char b '\n')
    facts;
  Buffer.contents b

let max_const facts = List.fold_left (fun m f -> List.fold_left max m f.args) 0 facts

(* A menu entry: the instance for a shape and a constant map. *)
type entry = {
  ename : string;
  shape : Random.State.t -> fact list;
  make : (int -> int) -> string -> instance;  (** constant map, database text *)
}

let entry ?fallback ename query agg tau shape =
  let make label db = { name = ename; query; agg; tau = tau label; fallback; db } in
  { ename; shape; make }

(* Instance [variant] of [e] under [seed]: the shape depends only on the
   entry and the variant, the constants on the seed as well. *)
let instance ~seed ~variant e =
  let facts = e.shape (Random.State.make [| variant; Hashtbl.hash e.ename |]) in
  let label =
    relabel (Random.State.make [| seed; variant; Hashtbl.hash e.ename |]) (max_const facts)
  in
  e.make label (render label facts)

(* [variants] instances of every menu entry, ordered so that consecutive
   operations visit different entries. *)
let pool ~seed ~variants menu =
  List.concat
    (List.init variants (fun variant -> List.map (fun e -> instance ~seed ~variant e) menu))

(* ------------------------------------------------------------------ *)
(* Menus                                                               *)
(* ------------------------------------------------------------------ *)

let q_xyy = "Q(x) <- R(x, y), S(y)"
let q_xyy_full = "Q(x, y) <- R(x, y), S(y)"
let q_rst_bool = "Q() <- R(x), T(x, y), S(y)"
let q_rst = "Q(x) <- R(x), T(x, y), S(y)"

let id _ = "id:R:0"
let const1 _ = "const:R:1"
let gt b label = sprintf "gt:R:0:%d" (label b)

(* The six frontier DPs of the paper, each sized to about 0.1–0.2 s of
   solving on one core. *)
let frontier_menu =
  [ entry "max_xyy" q_xyy "max" id (fun st -> xyy st ~n:64);
    entry "cdist_xyy" q_xyy "count-distinct" id (fun st -> xyy st ~n:250);
    entry "avg_xyy_full" q_xyy_full "avg" id (fun st -> xyy st ~n:12);
    entry "median_xyy_full" q_xyy_full "median" id (fun st -> xyy st ~n:12);
    entry "hasdup_q1sq" "Q(x) <- R(x, y), S(x)" "has-duplicates" (gt 12) (fun st -> q1sq st ~n:72);
    entry "sum_exists" "Q(x) <- R(x), S(x, y), T(y)" "sum" id (fun st -> exists st ~n:50) ]

(* Outside the frontier with [--fallback auto]: the planner sends the
   RST family to knowledge compilation, Avg (which KC cannot express)
   to naive enumeration, and the two tiny instances land on either side
   of its naive/KC crossover (5 and 7 players). With answer variables,
   KC cost moves with the drawn constants (Max on [Q(x)] took 0.07 s on
   some seeds and 0.17 s on others), so Count and Max use the Boolean
   query and Count-distinct is kept small. *)
let beyond_menu =
  let fallback = "auto" in
  [ entry ~fallback "count_rst" q_rst_bool "count" const1 (fun st -> rst st ~m:9 ~cross:2 ~exo:3);
    entry ~fallback "max_rst_bool" q_rst_bool "max" const1 (fun st -> rst st ~m:9 ~cross:2 ~exo:3);
    entry ~fallback "cdist_rst" q_rst "count-distinct" (gt 4) (fun st -> rst st ~m:10 ~cross:2 ~exo:3);
    entry ~fallback "hasdup_rst" q_rst "has-duplicates" (gt 4) (fun st -> rst st ~m:9 ~cross:2 ~exo:3);
    entry ~fallback "avg_naive" q_xyy "avg" id (fun st -> xyy st ~n:9);
    entry ~fallback "tiny_naive" q_rst_bool "count" const1 (fun st -> rst st ~m:2 ~cross:0 ~exo:1);
    entry ~fallback "tiny_kc" q_rst_bool "count" const1 (fun st -> rst st ~m:2 ~cross:1 ~exo:0) ]

(* The stateless [solve_query] stream of [serve_contended]: a Boolean
   RST query forced onto knowledge compilation, whose cost does not
   move with the drawn constants. One kind only, so that every step
   waits behind the same amount of work. *)
let kc_query_menu =
  [ entry ~fallback:"kc" "max_rst_bool" q_rst_bool "max" const1 (fun st -> rst st ~m:9 ~cross:2 ~exo:3) ]

(* ------------------------------------------------------------------ *)
(* Session tenants                                                     *)
(* ------------------------------------------------------------------ *)

type tenant = {
  tname : string;
  inst : instance;  (** the session's query, aggregate, τ and initial data *)
  delta : string list;  (** endogenous R-facts the update stream toggles *)
}

(* Tenant roles in the touch schedule: [hot] tenants stay resident,
   [cold] ones take turns in the one remaining resident slot. *)
let hot = 4
let cold = 3

(* The hot tenants are two Sum-engine (linear) and two Max-engine
   (generic) sessions; the cold ones are Sum sessions, so every restore
   costs the same. Sum tenants hold [rows] R-facts, one answer
   each; Max tenants half as many and a two-valued τ. Each tenant's
   updates toggle one fixed set of about 1% of its endogenous R-facts,
   so its database is always in one of two states whose answers are
   known in advance. *)
let tenants ~seed ~rows =
  List.init (hot + cold) (fun i ->
      let sum = i >= hot || i mod 2 = 0 in
      let n = if sum then rows else rows / 2 in
      let shape st =
        let g = isqrt n in
        let xs = Array.init n Fun.id in
        shuffle st xs;
        with_exo st ~exo:(n / 10)
          (List.init n (fun k -> ("R", [ xs.(k); k mod g ])) @ List.init g (fun j -> ("S", [ j ])))
      in
      let e =
        if sum then entry "sum_tenant" q_xyy "sum" id shape
        else entry "max_tenant" q_xyy "max" (gt (n / 2)) shape
      in
      (* Tenants of one role share a shape and differ in their constants. *)
      let role = if i >= hot then 2 else i mod 2 in
      let st = Random.State.make [| role; Hashtbl.hash e.ename |] in
      let facts = shape st in
      let label = relabel (Random.State.make [| seed; i |]) (max_const facts) in
      let endo_r = Array.of_list (List.filter (fun f -> f.rel = "R" && not f.exo) facts) in
      shuffle st endo_r;
      let delta = Array.to_list (Array.sub endo_r 0 (max 2 (n / 100))) in
      { tname = sprintf "t%02d" i; inst = e.make label (render label facts);
        delta = String.split_on_char '\n' (String.trim (render label delta)) })

(* The update script of a tenant's [touch]-th step: even touches delete
   [delta], odd touches insert it back. *)
let update_script t ~touch =
  let verb = if touch mod 2 = 0 then "delete" else "insert" in
  String.concat "\n" (List.map (fun f -> verb ^ " " ^ f) t.delta)

(* The seeded, skewed touch schedule (indices into [tenants]): blocks of
   one cold tenant followed by every hot tenant in a seeded order. Cold
   tenants take turns in a seeded cycle, so with [hot + 1] resident
   sessions exactly one step in five touches an evicted tenant, on
   every seed. *)
let schedule ~seed =
  let st = Random.State.make [| seed; 0x21bf |] in
  let colds = Array.init cold (fun i -> hot + i) in
  shuffle st colds;
  let k = ref 0 and queue = ref [] in
  fun () ->
    if !queue = [] then begin
      let h = Array.init hot Fun.id in
      shuffle st h;
      queue := colds.(!k mod cold) :: Array.to_list h;
      incr k
    end;
    match !queue with
    | t :: rest ->
      queue := rest;
      t
    | [] -> assert false
