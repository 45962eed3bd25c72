(** Block-based memory.

    Every variable owns a block (scalars have size 1, arrays their declared
    size); pointers are (block, offset) pairs.  Out-of-bounds offsets,
    dangling blocks (frame popped) and unknown blocks fault — giving MiniC
    programs memory-safety crashes at well-defined source locations, which
    is exactly the crash behaviour the paper reproduces.

    Blocks live in a growable array indexed by block id.  Ids start at 1
    and are never reused: a killed block's slot points at the shared
    [dead] sentinel for the rest of the run, so the store costs one word
    per block ever allocated. *)

type fault = Oob | Dead_block | Unknown_block

exception Fault of fault

(* Distinct from every live block, including empty ones (all zero-length
   arrays are the same atom); never written. *)
let dead : Value.t array = [| Value.zero |]

type t = { mutable blocks : Value.t array array; mutable next : int }

let create () = { blocks = Array.make 256 dead; next = 1 }

(** Allocate a zero-initialised block; returns its id. *)
let alloc t ~size =
  let bid = t.next in
  if bid >= Array.length t.blocks then begin
    let grown = Array.make (2 * Array.length t.blocks) dead in
    Array.blit t.blocks 0 grown 0 bid;
    t.blocks <- grown
  end;
  t.blocks.(bid) <- Array.make (max size 0) Value.zero;
  t.next <- bid + 1;
  bid

(** Mark a block dead (its id is never reused, so later accesses fault with
    [Dead_block] — a use-after-free detector for free). *)
let kill t bid = if bid > 0 && bid < t.next then t.blocks.(bid) <- dead

(* The cells of a live block; raises [Fault] otherwise. *)
let cells t base =
  if base >= t.next then raise (Fault Unknown_block)
  else if base <= 0 then raise (Fault Dead_block)
  else
    let b = Array.unsafe_get t.blocks base in
    if b == dead then raise (Fault Dead_block) else b

let size t bid =
  match cells t bid with b -> Some (Array.length b) | exception Fault _ -> None

let get t ~base ~off =
  let b = cells t base in
  if off < 0 || off >= Array.length b then raise (Fault Oob)
  else Array.unsafe_get b off

let set t ~base ~off (v : Value.t) =
  let b = cells t base in
  if off < 0 || off >= Array.length b then raise (Fault Oob)
  else Array.unsafe_set b off v

let fault_to_crash_kind = function
  | Oob -> Crash.Out_of_bounds
  | Dead_block -> Crash.Use_after_free
  | Unknown_block -> Crash.Invalid_pointer
