(** Static branch labelling: the paper's "static analysis" instrumentation
    input (§2.2), refined by the precision pipeline.

    Pass order: {!Pointsto} -> {!Constprop} -> {!Taint} (strong updates,
    dead-arm pruning) -> labelling; constant-condition and provably dead
    branches are [Concrete] regardless of taint.  Guarantee: every truly
    symbolic branch is labelled [Symbolic]; imprecision only ever adds
    spurious [Symbolic] labels (the over-approximation is property-tested
    against dynamic analysis). *)

type result = {
  labels : Minic.Label.map;
  n_symbolic : int;
  n_concrete : int;
  contexts : int;  (** (function, context) pairs analysed by taint *)
  constprop : Constprop.result option;  (** present when [refine] *)
  provenance : Provenance.t;  (** witness chains for symbolic labels *)
  n_const_proved : int;  (** branches labelled Concrete via constancy *)
  n_dead_proved : int;  (** branches labelled Concrete via deadness *)
  widened_loops : int;
      (** loop fixpoints finished by widening; [analyze] prints nothing,
          callers that want a warning report this count *)
}

(** Analyze [prog].  [analyze_lib = false] reproduces the paper's uServer
    setup (§5.3): library code is not analysed and all its branches are
    conservatively labelled symbolic.  [refine = false] disables constprop
    and strong updates (the seed pipeline, used as precision baseline).
    [telemetry] wraps the run in an [analyze.static] span with one child
    span per pass ([static.pointsto]/[static.constprop]/[static.taint]). *)
val analyze :
  ?analyze_lib:bool ->
  ?refine:bool ->
  ?telemetry:Telemetry.t ->
  Minic.Program.t ->
  result

(** Precision report against dynamic ground-truth labels. *)
val precision :
  result -> Minic.Program.t -> dynamic:Minic.Label.map -> Precision.report
