(* Operation accounting and correctness verdicts for one benchmark run.
   An operation that ran out of its run budget, or hit the wall-clock
   safety net, is a failed operation and gives no per-operation time
   sample; a wrong output is a correctness violation and fails the whole
   run. *)

let attempted = ref 0
let failed = ref 0
let violations : string list ref = ref []
let attempt () = incr attempted

let fail msg =
  incr failed;
  prerr_endline ("perfbench: failed operation: " ^ msg)

let violation msg =
  violations := msg :: !violations;
  prerr_endline ("perfbench: CHECK FAILED: " ^ msg)

let require cond msg = if not cond then violation msg
let correct () = !violations = []

(* Per-setup and per-pass sums, keyed by metric (or helper) name: work
   counters, which every pass of a run must reproduce exactly, apart from
   wall-clock seconds. *)
module Tally = struct
  type t = {
    counts : (string, float) Hashtbl.t;
    times : (string, float) Hashtbl.t;
    samples : (string, float list) Hashtbl.t;  (** per-operation seconds *)
  }

  let create () =
    {
      counts = Hashtbl.create 32;
      times = Hashtbl.create 8;
      samples = Hashtbl.create 4;
    }
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
  let bump tbl k v = Hashtbl.replace tbl k (v +. get tbl k)
  let add t k v = bump t.counts k v
  let addi t k i = add t k (float_of_int i)
  let time t k v = bump t.times k v
  let sample t k v =
    Hashtbl.replace t.samples k
      (v :: Option.value (Hashtbl.find_opt t.samples k) ~default:[])

  let samples t k = Option.value (Hashtbl.find_opt t.samples k) ~default:[]
  let count t k = get t.counts k
  let wall t k = get t.times k

  (* Every time and per-operation sample multiplied by [f]. *)
  let scale t f =
    Hashtbl.filter_map_inplace (fun _ v -> Some (v *. f)) t.times;
    Hashtbl.filter_map_inplace (fun _ v -> Some (List.map (( *. ) f) v)) t.samples

  let max_ t k v =
    match Hashtbl.find_opt t.counts k with
    | Some old when old >= v -> ()
    | _ -> Hashtbl.replace t.counts k v

  let sorted_counts t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts [] |> List.sort compare
end
