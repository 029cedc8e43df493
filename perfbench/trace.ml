(* Spans and work counters for the traced run.

   A span is recorded around each call the benchmark makes into a layer:
   name, start, end, the enclosing span and the operation it belongs to.
   Spans are kept in memory and written out when the run ends. With
   [enabled] off, [span] just runs its body, which is how the untraced
   repeat measures the tracing overhead. The counters are the library's
   own public [stats] APIs, reset before each operation. *)

module Bigint = Aggshap_arith.Bigint
module Tables = Aggshap_core.Tables
module Engine = Aggshap_core.Engine
module Database = Aggshap_relational.Database
module Plan = Aggshap_cq.Plan
module Ddnnf = Aggshap_lineage.Ddnnf

type span = { id : int; parent : int; op : int; name : string; start : float; stop : float }

let enabled = ref true
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let op = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = Unix.gettimeofday () in
    let finish () =
      open_spans := List.tl !open_spans;
      spans := { id; parent; op = !op; name; start; stop = Unix.gettimeofday () } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Total duration of the spans called [name]. *)
let total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc) 0.0 !spans

(* The last recorded span's duration ([0] with tracing off). *)
let last_duration () = match !spans with s :: _ -> s.stop -. s.start | [] -> 0.0

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n" s.id
        s.parent s.op s.name s.start s.stop)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let reset_counters () =
  Bigint.reset_stats ();
  Tables.reset_stats ();
  Engine.reset_stats ();
  Database.reset_stats ();
  Plan.reset_stats ();
  Ddnnf.reset_stats ()

(* Every counter the traced run reports, by metric name. *)
let read_counters () =
  let b = Bigint.stats () and t = Tables.stats () and e = Engine.stats () in
  let d = Database.stats () and p = Plan.stats () and k = Ddnnf.stats () in
  [ ("database.index_builds", d.Database.index_builds);
    ("database.index_probes", d.Database.index_probes);
    ("database.rel_scans", d.Database.rel_scans);
    ("plan.compiles", p.Plan.plan_compiles);
    ("engine.nodes", e.Engine.nodes);
    ("engine.leaves", e.Engine.leaves);
    ("engine.merges", e.Engine.merges);
    ("engine.combines", e.Engine.combines);
    ("tables.convolve", t.Tables.convolve);
    ("tables.convolve_small", t.Tables.convolve_small);
    ("tables.convolve_ntt", t.Tables.convolve_ntt);
    ("tables.weighted_sums", t.Tables.weighted_sums);
    ("bigint.mul_schoolbook", b.Bigint.mul_schoolbook);
    ("bigint.mul_karatsuba", b.Bigint.mul_karatsuba);
    ("bigint.mul_small", b.Bigint.mul_small);
    ("bigint.acc_mul", b.Bigint.acc_mul);
    ("bigint.divmod", b.Bigint.divmod);
    ("bigint.gcd", b.Bigint.gcd);
    ("bigint.promotions", b.Bigint.promotions);
    ("ddnnf.nodes", k.Ddnnf.nodes);
    ("ddnnf.cache_hits", k.Ddnnf.cache_hits);
    ("ddnnf.cache_misses", k.Ddnnf.cache_misses);
    ("ddnnf.wmc_passes", k.Ddnnf.wmc_passes);
    ("ddnnf.budget_aborts", k.Ddnnf.budget_aborts) ]

(* Ddnnf's own CPU-time accounting, in seconds: (compile, wmc). *)
let ddnnf_cpu () =
  let k = Ddnnf.stats () in
  (k.Ddnnf.compile_s, k.Ddnnf.wmc_s)

(* Running sums of counters across the operations of one pass. *)
type tally = (string, int) Hashtbl.t

let tally () : tally = Hashtbl.create 32

let add (t : tally) counters =
  List.iter
    (fun (k, v) -> Hashtbl.replace t k (v + Option.value (Hashtbl.find_opt t k) ~default:0))
    counters

let get (t : tally) k = Option.value (Hashtbl.find_opt t k) ~default:0

let bump (t : tally) k n = add t [ (k, n) ]

(* Names of the counters whose totals differ between two passes. *)
let differing (a : tally) (b : tally) =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) a (Hashtbl.fold (fun k _ acc -> k :: acc) b []) in
  List.filter (fun k -> get a k <> get b k) (List.sort_uniq compare keys)
