(** Constraint solving: satisfiability and model construction.

    Pipeline: structural simplification and deduplication, interval
    propagation to a fixpoint, then backtracking search with forward
    checking.  The search tries the caller-supplied hint first — the
    concolic trick that makes most queries trivial, because the previous
    run's input already satisfies all but the negated constraint. *)

type outcome = Sat of Model.t | Unsat | Unknown

type budget = {
  max_nodes : int;  (** backtracking nodes before giving up *)
  max_enum : int;  (** largest domain enumerated exhaustively *)
}

val default_budget : budget

type stats = {
  mutable calls : int;
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable nodes : int;
}

(** Global counters, for benchmark reporting. *)
val stats : stats

val reset_stats : unit -> unit

(** One interval-narrowing step for a single constraint, parameterized over
    domain read/write — shared with {!Scope}'s incremental propagation.
    [narrow dom_of set_dom c] tightens the domains of variables of [c] so
    that [c <> 0] can still hold. *)
val narrow : (int -> Interval.t) -> (int -> Interval.t -> unit) -> Expr.t -> unit

(** Find a model of the conjunction, [Unsat] if provably none exists, or
    [Unknown] when the budget ran out or a domain was too large to
    enumerate.  [hint] supplies preferred values per variable.

    [init_dom] seeds warm starting intervals per variable (met with the
    registry domain) — used by {!Scope} to hand a child query the parent's
    already-propagated fixpoint.  Sound only when the supplied intervals are
    implied by the conjunction being solved.  [prop_rounds] bounds the
    propagation loop (default 30); [order] selects the search variable
    order: [`Path] (default, first occurrence along the path) or
    [`Smallest_dom] (enumeration-first: tightest domains first).  The
    defaults reproduce the historical solver behaviour bit for bit. *)
val solve :
  ?budget:budget ->
  ?init_dom:(int -> Interval.t option) ->
  ?order:[ `Path | `Smallest_dom ] ->
  ?prop_rounds:int ->
  vars:Symvars.t ->
  ?hint:(int -> int option) ->
  Expr.t list ->
  outcome
