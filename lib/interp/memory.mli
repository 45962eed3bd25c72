(** Block-based memory.

    Every variable owns a block (scalars have size 1, arrays their declared
    size); pointers are (block, offset) pairs.  Out-of-bounds offsets,
    dangling blocks and unknown blocks fault, giving MiniC programs
    memory-safety crashes at well-defined source locations.

    The store is an array indexed by block id, so an access is two array
    reads and two bound checks.  Ids start at 1, are handed out in
    allocation order and are never reused. *)

type fault =
  | Oob  (** offset outside a live block *)
  | Dead_block  (** a killed block, or an id [<= 0] *)
  | Unknown_block  (** an id not yet allocated *)

exception Fault of fault
(** Raised by {!get} and {!set}; the hot path allocates nothing else. *)

type t

val create : unit -> t

(** Allocate a zero-initialised block; returns its id. *)
val alloc : t -> size:int -> int

(** Mark a block dead; ids are never reused, so later accesses fault with
    [Dead_block] — a use-after-free detector for free. *)
val kill : t -> int -> unit

(** Cell count of a live block. *)
val size : t -> int -> int option

(** Read a cell; raises {!Fault}. *)
val get : t -> base:int -> off:int -> Value.t

(** Write a cell; raises {!Fault}. *)
val set : t -> base:int -> off:int -> Value.t -> unit

val fault_to_crash_kind : fault -> Crash.kind
