(* Machine-speed calibration.

   On a shared host the processor's speed drifts by up to ±20% from one
   minute to the next (other tenants share its cores and caches), and
   every timing of a run drifts with it; CPU time drifts the same way, so
   it is no remedy. The benchmark therefore times a fixed piece of OCaml
   work between its operations — allocation, a balanced map, a hash
   table and integer arithmetic, the program's own mix — and scales the
   run's timings by [reference_s / median calibration time]. A
   calibrated time is the time the operation would have taken had the
   host run the calibration work at its reference speed. The benchmark
   pins itself and its children to one processor, so the units time the
   processor the operations run on; unpinned, the two drift apart. The
   work uses no code of the program, so a change to the program cannot
   move it. Raw wall times are printed beside every calibrated metric. *)

module IM = Map.Make (Int)

(* One calibration unit on an idle 2.0 GHz Xeon vCPU (OCaml 5.1). Only
   ratios of calibrated times matter; this constant keeps them near the
   wall times of that host. *)
let reference_s = 0.010

let work () =
  let h = Hashtbl.create 64 in
  let m = ref IM.empty and l = ref [] and acc = ref 0 in
  for i = 0 to 11_999 do
    let k = i * 7919 land 2047 in
    m := IM.add k i !m;
    Hashtbl.replace h k (i, k);
    l := (k, i) :: !l;
    acc := !acc + (i * i mod 97)
  done;
  let l = List.sort compare !l in
  !acc + IM.cardinal !m + Hashtbl.length h + List.length l

type t = { mutable samples : float list }

let create () = { samples = [] }

(* Times one unit of work and records it. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  t.samples <- (Unix.gettimeofday () -. t0) :: t.samples

let count t = List.length t.samples
let total t = List.fold_left ( +. ) 0.0 t.samples

let median t =
  let a = Array.of_list t.samples in
  Array.sort compare a;
  Percentile.percentile a 0.5

(* Calibrated time = wall time × [factor t]. *)
let factor t = if t.samples = [] then 1.0 else reference_s /. median t
