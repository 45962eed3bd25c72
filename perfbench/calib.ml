(* Host speed, measured with a fixed reference computation that shares no
   code with the program under test.

   The benchmark runs on a few cores of a shared host whose speed drifts
   by tens of percent over minutes while the program's work stays the
   same (perfbench/README.md).  So a run times the reference computation
   between its operations ([tick]), and the wall time of every set-up and
   pass is also reported at the nominal host speed: multiplied by
   [nominal_s] over the median reference sample taken around and inside
   it.  The program cannot move the reference: it
   evaluates a fixed
   expression tree of about 60 000 nodes (a couple of megabytes; pointer
   chasing and unpredictable branches, like the interpreter and the
   solver) and allocates nothing, so neither the program's code nor its
   live heap takes part in it. *)

type node =
  | Const of int
  | Var of int
  | Add of node * node
  | Mul of node * node
  | Select of node * node * node

let size = 60_000

(* A tree of about [size] nodes from a fixed linear congruential stream. *)
let tree =
  lazy
    (let x = ref 12345 in
     let next bound =
       x := ((!x * 1103515245) + 12345) land 0x3fffffff;
       !x mod bound
     in
     let rec build budget =
       if budget <= 1 then
         if next 2 = 0 then Const (next 100) else Var (next 8)
       else
         let budget = budget - 1 in
         match next 3 with
         | 0 ->
             let l = 1 + next budget in
             Add (build l, build (budget - l + 1))
         | 1 ->
             let l = 1 + next budget in
             Mul (build l, build (budget - l + 1))
         | _ ->
             let a = 1 + next budget in
             let b = 1 + next (budget - a + 1) in
             Select (build a, build b, build (budget - a - b + 2))
     in
     build size)

let rec eval env = function
  | Const n -> n
  | Var i -> Array.unsafe_get env i
  | Add (a, b) -> (eval env a + eval env b) land 0xffff
  | Mul (a, b) -> eval env a * eval env b land 0xffff
  | Select (c, a, b) -> if eval env c land 1 = 0 then eval env a else eval env b

let env = Array.make 8 0

(* Tree evaluations per sample: about 10 ms on the 2-vCPU host the
   benchmark was sized on, which is what [nominal_s] names. *)
let rounds = 32
let nominal_s = 0.010

let burst = 2

let sample () =
  let t = Lazy.force tree in
  let t0 = Sample.now () in
  let acc = ref 0 in
  for i = 1 to rounds do
    env.(i land 7) <- i;
    acc := !acc + eval env t
  done;
  let dt = Sample.now () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt

let samples : float list ref = ref []
let spent = ref 0.0

(* Take [burst] reference samples.  Workloads tick between their
   operations, outside the phases they time themselves; [calibrated]
   takes the time spent in ticks out of the walls it measures. *)
let tick () =
  let t0 = Sample.now () in
  for _ = 1 to burst do
    samples := sample () :: !samples
  done;
  spent := !spent +. (Sample.now () -. t0)

let n_samples () = List.length !samples

(* Nominal over measured host speed: the factor that takes a wall time
   measured at the speed of [samples] to nominal speed. *)
let factor_of samples = Sample.ratio nominal_s (Sample.median samples)

(* The run's median reference sample, and its factor, for times that are
   not bracketed by ticks of their own. *)
let reference_s () = Sample.median !samples
let factor () = factor_of !samples

(* Run [f] between two ticks: its result, its wall time with the ticks
   inside it taken out, and the factor of the samples from the tick
   before it to the tick after it. *)
let calibrated f =
  tick ();
  let n0 = n_samples () - burst and spent0 = !spent in
  let r, wall = Sample.time f in
  let inside = !spent -. spent0 in
  tick ();
  let window = List.filteri (fun i _ -> i < n_samples () - n0) !samples in
  (r, wall -. inside, factor_of window)
