(* Order statistics over timing samples. *)

(* Linear-interpolation quantile of the samples. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)

(* The highest of the offered percentiles that leaves at least ten samples
   above it; the median when none does. *)
let high_percentile n =
  List.fold_left
    (fun best p -> if float_of_int n *. (1.0 -. p) >= 10.0 then p else best)
    0.5 [ 0.9; 0.99 ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
