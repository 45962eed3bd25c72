(* Tests for the evaluator and the simulated OS: semantics, crashes,
   builtins, I/O, cost accounting, hooks. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let compile ?(libs = []) src = Minic.Program.of_sources ~app:src ~libs ()

let run ?(args = []) ?(world = Osmodel.World.default_config) ?(max_steps = 1_000_000)
    ?(hooks = Interp.Eval.no_hooks) src =
  let prog = compile src in
  let _w, handle = Osmodel.World.kernel world in
  let cfg =
    {
      Interp.Eval.inputs = Interp.Inputs.of_strings args;
      kernel = Interp.Kernel.of_world handle;
      hooks;
      max_steps;
      scheduler = None;
    }
  in
  Interp.Eval.run prog cfg

let exit_code (r : Interp.Eval.result) =
  match r.outcome with
  | Interp.Crash.Exit n -> n
  | o -> Alcotest.failf "expected exit, got %s" (Interp.Crash.outcome_to_string o)

let crash_kind (r : Interp.Eval.result) =
  match r.outcome with
  | Interp.Crash.Crash c -> c.kind
  | o -> Alcotest.failf "expected crash, got %s" (Interp.Crash.outcome_to_string o)

(* ------------------------------------------------------------------ *)
(* Basic semantics *)

let test_arith () =
  check_int "17 % 5 + 3 * 4" 14 (exit_code (run "int main() { return 17 % 5 + 3 * 4; }"))

let test_division_truncates_toward_zero () =
  check_int "-7/2" (-3) (exit_code (run "int main() { return -7 / 2; }"));
  check_int "-7%2" (-1) (exit_code (run "int main() { return -7 % 2; }"))

let test_logical_strictness_result () =
  check_int "0 && x -> 0" 0 (exit_code (run "int main() { return 0 && 9; }"));
  check_int "nonzero coerced" 1 (exit_code (run "int main() { return 5 && 9; }"));
  check_int "or" 1 (exit_code (run "int main() { return 0 || 3; }"))

let test_while_loop () =
  check_int "sum 1..10" 55
    (exit_code
       (run
          "int main() { int s = 0; int i = 1; while (i <= 10) { s = s + i; i = i + 1; } return s; }"))

let test_break_continue () =
  check_int "break" 5
    (exit_code
       (run
          "int main() { int i = 0; while (1) { if (i == 5) break; i = i + 1; } return i; }"));
  check_int "continue skips" 25
    (exit_code
       (run
          "int main() { int i = 0; int s = 0; while (i < 10) { i = i + 1; if (i % 2 == 0) continue; s = s + i; } return s; }"))

let test_recursion () =
  check_int "fib 10" 89
    (exit_code
       (run
          "int fib(int n) { if (n <= 1) return 1; return fib(n - 1) + fib(n - 2); }\n\
           int main() { return fib(10); }"))

let test_arrays_and_pointers () =
  check_int "ptr writes" 42
    (exit_code
       (run
          "int main() { int a[5]; int *p; p = &a[2]; *p = 40; p[1] = 2; return a[2] + a[3]; }"));
  check_int "pointer arith" 7
    (exit_code
       (run
          "int main() { int a[3]; int *p = a; *(p + 1) = 7; return a[1]; }"))

let test_globals () =
  check_int "global init and update" 11
    (exit_code (run "int g = 4; int main() { g = g + 7; return g; }"))

let test_string_literal () =
  let r = run "int main() { print_str(\"hi there\"); return 0; }" in
  check_str "output" "hi there" r.output

let test_string_literal_bytes () =
  check_int "literal byte" 105
    (exit_code (run "int main() { int *s = \"hi\"; return s[1]; }"))

let test_by_reference_param () =
  check_int "out param" 9
    (exit_code
       (run
          "void set(int *out, int v) { *out = v; }\n\
           int main() { int x = 0; set(&x, 9); return x; }"))

let test_array_param () =
  check_int "array passed as pointer" 6
    (exit_code
       (run
          "int sum(int a[], int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) s = s + a[i]; return s; }\n\
           int main() { int a[3]; a[0] = 1; a[1] = 2; a[2] = 3; return sum(a, 3); }"))

(* ------------------------------------------------------------------ *)
(* Crashes *)

let test_crash_oob () =
  check_bool "oob" true
    (crash_kind (run "int main() { int a[3]; return a[3]; }") = Interp.Crash.Out_of_bounds)

let test_crash_null () =
  check_bool "null" true
    (crash_kind (run "int main() { int *p; return *p; }") = Interp.Crash.Null_deref)

let test_crash_div0 () =
  check_bool "div0" true
    (crash_kind (run "int main() { int z = 0; return 1 / z; }") = Interp.Crash.Div_by_zero)

let test_crash_explicit () =
  check_bool "crash()" true
    (crash_kind (run "int main() { crash(); return 0; }") = Interp.Crash.Explicit_crash)

let test_crash_assert () =
  check_bool "assert" true
    (crash_kind (run "int main() { assert(1 == 2); return 0; }")
    = Interp.Crash.Assert_failure)

let test_crash_use_after_free () =
  let src =
    "int *leak() { int x = 3; return &x; }\n\
     int main() { int *p = leak(); return *p; }"
  in
  check_bool "uaf" true (crash_kind (run src) = Interp.Crash.Use_after_free)

let test_crash_stack_overflow () =
  let src = "int f(int n) { return f(n + 1); }\nint main() { return f(0); }" in
  check_bool "stack overflow" true
    (crash_kind (run src) = Interp.Crash.Stack_overflow)

let test_crash_site_location () =
  let r = run "int main() {\n  int a[2];\n  return a[9];\n}" in
  match r.outcome with
  | Interp.Crash.Crash c ->
      check_int "crash line" 3 c.loc.line;
      check_str "crash func" "main" c.in_func
  | _ -> Alcotest.fail "expected crash"

let test_budget_exhaustion () =
  let r = run ~max_steps:1000 "int main() { while (1) { } return 0; }" in
  check_bool "budget" true (r.outcome = Interp.Crash.Budget_exhausted)

(* ------------------------------------------------------------------ *)
(* Builtins and I/O *)

let test_exit_builtin () =
  check_int "exit(3)" 3 (exit_code (run "int main() { exit(3); return 0; }"))

let test_args () =
  let src =
    "int main() { int buf[32]; int n = arg(0, buf, 32); if (buf[0] == 'x') return n; return 99; }"
  in
  check_int "arg copied" 3 (exit_code (run ~args:[ "xyz" ] src))

let test_argc () =
  check_int "argc" 2 (exit_code (run ~args:[ "a"; "b" ] "int main() { return argc(); }"))

let test_read_file () =
  let world =
    { Osmodel.World.default_config with files = [ ("data.txt", "hello") ] }
  in
  let src =
    "int main() { int buf[16]; int fd = open(\"data.txt\", 0); if (fd < 0) return 1; \
     int n = read(fd, buf, 16); close(fd); if (buf[0] != 'h') return 2; return n; }"
  in
  check_int "read 5 bytes" 5 (exit_code (run ~world src))

let test_open_missing_file () =
  let src = "int main() { return open(\"nope\", 0); }" in
  check_int "missing file" (-1) (exit_code (run src))

let test_write_stdout () =
  let world = Osmodel.World.default_config in
  let prog =
    compile
      "int main() { int b[3]; b[0] = 'o'; b[1] = 'k'; b[2] = '\\n'; write(1, b, 3); return 0; }"
  in
  let w, handle = Osmodel.World.kernel world in
  let cfg =
    {
      Interp.Eval.inputs = Interp.Inputs.of_strings [];
      kernel = Interp.Kernel.of_world handle;
      hooks = Interp.Eval.no_hooks;
      max_steps = 100000;
      scheduler = None;
    }
  in
  let r = Interp.Eval.run prog cfg in
  check_int "exit" 0 (exit_code r);
  check_str "stdout" "ok\n" (Osmodel.World.stdout_string w)

let test_server_accept_read () =
  (* one connection sending "PING"; server accepts after select and echoes *)
  let world =
    {
      Osmodel.World.default_config with
      conns = [ "PING" ];
      arrivals_per_select = 2;
      max_chunk = 64;
    }
  in
  let src =
    "int main() {\n\
     int buf[64]; int got = 0; int fd = -1; int tries = 0;\n\
     listen(80);\n\
     while (got < 4 && tries < 100) {\n\
     tries = tries + 1;\n\
     int nready = select();\n\
     if (fd < 0) { fd = accept(); }\n\
     if (fd >= 0) { int n = read(fd, buf, 64); if (n > 0) got = got + n; }\n\
     }\n\
     return got;\n\
     }"
  in
  check_int "received 4 bytes" 4 (exit_code (run ~world src))

let test_world_partial_reads () =
  (* with max_chunk 2, a 6-byte payload takes >= 3 reads *)
  let world =
    { Osmodel.World.default_config with conns = [ "abcdef" ]; max_chunk = 2 }
  in
  let src =
    "int main() {\n\
     int buf[8]; int reads = 0; int got = 0; int fd = -1; int tries = 0;\n\
     listen(80);\n\
     while (got < 6 && tries < 200) {\n\
     tries = tries + 1;\n\
     select();\n\
     if (fd < 0) fd = accept();\n\
     if (fd >= 0) { int n = read(fd, buf, 8); if (n > 0) { got = got + n; reads = reads + 1; } }\n\
     }\n\
     return reads;\n\
     }"
  in
  check_bool "at least 3 reads" true (exit_code (run ~world src) >= 3)

(* ------------------------------------------------------------------ *)
(* Hooks and cost *)

let test_branch_hook_fires_per_execution () =
  let count = ref 0 in
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch = (fun ~bid:_ ~iter:_ ~taken:_ ~cond:_ -> incr count);
    }
  in
  let _ =
    run ~hooks
      "int main() { int i; for (i = 0; i < 10; i = i + 1) { if (i > 100) { } } return 0; }"
  in
  (* while executes 11 times (10 taken + 1 exit), if 10 times *)
  check_int "branch executions" 21 !count

let test_branch_hook_taken_direction () =
  let dirs = ref [] in
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch = (fun ~bid:_ ~iter:_ ~taken ~cond:_ -> dirs := taken :: !dirs);
    }
  in
  let _ = run ~hooks "int main() { if (1) { } if (0) { } return 0; }" in
  Alcotest.(check (list bool)) "directions" [ false; true ] !dirs

let test_cost_monotone_in_work () =
  let r1 = run "int main() { int i; for (i = 0; i < 10; i = i + 1) { } return 0; }" in
  let r2 = run "int main() { int i; for (i = 0; i < 1000; i = i + 1) { } return 0; }" in
  check_bool "more iterations cost more" true (r2.cost.instr > r1.cost.instr)

let test_abort_hook () =
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch =
        (fun ~bid:_ ~iter:_ ~taken:_ ~cond:_ -> raise (Interp.Eval.Abort_run "test"));
    }
  in
  let r = run ~hooks "int main() { if (1) { } return 0; }" in
  check_bool "aborted" true
    (match r.outcome with Interp.Crash.Aborted _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Frames and memory: the cases a per-function layout could get wrong *)

let test_local_shadows_global () =
  check_int "local read and written, global untouched" 85
    (exit_code
       (run
          "int x = 5;\n\
           int f() { int x = 7; x = x + 1; return x; }\n\
           int g() { return x; }\n\
           int main() { int a = f(); return a * 10 + g(); }"))

let test_recursion_fresh_blocks () =
  (* every activation owns its own [x]; the caller's stays alive and
     writable through a pointer while the callee runs *)
  check_int "distinct live activations" 63
    (exit_code
       (run
          "int f(int n, int *outer) {\n\
          \  int x = n * 10;\n\
          \  if (outer != 0) { if (outer == &x) return -1000; *outer = *outer + 1; }\n\
          \  if (n == 0) return 0;\n\
          \  int r = f(n - 1, &x);\n\
          \  return r + x;\n\
           }\n\
           int main() { return f(3, 0); }"))

let test_dangling_after_reentry () =
  (* the function is active again, with a fresh [x], when the stale
     pointer into its previous activation is dereferenced *)
  let src =
    "int *saved;\n\
     int h(int first) { int x = 42; if (first) { saved = &x; return 0; } return *saved; }\n\
     int main() { h(1); return h(0); }"
  in
  check_bool "uaf on re-entry" true (crash_kind (run src) = Interp.Crash.Use_after_free)

(* A pointer with an arbitrary block id, planted in global [p] through the
   checkpoint interface, then dereferenced. *)
let forged_deref ~base ~off =
  let hooks =
    {
      Interp.Eval.no_hooks with
      on_checkpoint =
        (fun access ->
          check_bool "write_global" true
            (access.write_global "p" 0 (Interp.Value.ptr ~base ~off)));
    }
  in
  crash_kind (run ~hooks "int *p;\nint main() { checkpoint(); return *p; }")

let test_forged_pointers () =
  let kind =
    Alcotest.testable
      (fun ppf k -> Format.pp_print_string ppf (Interp.Crash.kind_to_string k))
      ( = )
  in
  let check name expected ~base ~off =
    Alcotest.check kind name expected (forged_deref ~base ~off)
  in
  check "base 0" Interp.Crash.Use_after_free ~base:0 ~off:0;
  check "negative base" Interp.Crash.Use_after_free ~base:(-3) ~off:0;
  check "base past the last block" Interp.Crash.Invalid_pointer ~base:9999 ~off:0;
  check "live block, bad offset" Interp.Crash.Out_of_bounds ~base:1 ~off:5;
  check "live block, negative offset" Interp.Crash.Out_of_bounds ~base:1 ~off:(-1)

let test_block_id_order () =
  (* ids follow allocation order: globals at start-up, each call's
     parameters then locals, a string literal when first evaluated *)
  let seen = ref [] in
  let hooks =
    {
      Interp.Eval.no_hooks with
      on_checkpoint =
        (fun access ->
          seen :=
            List.map
              (fun g ->
                match access.read_global g 0 with
                | Some v -> Interp.Value.to_string v
                | None -> "-")
              [ "p"; "q"; "s" ]);
    }
  in
  let src =
    "int *p; int *q; int *s;\n\
     int f(int a) { int b; p = &a; q = &b; s = \"x\"; checkpoint(); return 0; }\n\
     int main() { int m; m = f(1); return m; }"
  in
  check_int "exit" 0 (exit_code (run ~hooks src));
  Alcotest.(check (list string)) "block ids" [ "&5[0]"; "&6[0]"; "&7[0]" ] !seen

let test_block_store () =
  let module M = Interp.Memory in
  let m = M.create () in
  let fault f =
    match f () with
    | _ -> "none"
    | exception M.Fault M.Oob -> "oob"
    | exception M.Fault M.Dead_block -> "dead"
    | exception M.Fault M.Unknown_block -> "unknown"
  in
  let ids = List.init 600 (fun i -> M.alloc m ~size:(i mod 3)) in
  check_bool "ids count up from 1, past the initial capacity" true
    (ids = List.init 600 (fun i -> i + 1));
  (* block [i] has [(i - 1) mod 3] cells *)
  M.set m ~base:600 ~off:1 (Interp.Value.int_ 7);
  check_bool "cell survives growth" true (M.get m ~base:600 ~off:1 = Interp.Value.int_ 7);
  check_bool "fresh cells are zero" true (M.get m ~base:600 ~off:0 = Interp.Value.zero);
  check_str "empty block" "oob" (fault (fun () -> M.get m ~base:1 ~off:0));
  check_str "offset = size" "oob" (fault (fun () -> M.get m ~base:2 ~off:1));
  check_str "negative offset" "oob"
    (fault (fun () -> M.set m ~base:2 ~off:(-1) Interp.Value.one));
  check_str "base 0" "dead" (fault (fun () -> M.get m ~base:0 ~off:0));
  check_str "negative base" "dead" (fault (fun () -> M.get m ~base:(-1) ~off:0));
  check_str "next id" "unknown" (fault (fun () -> M.get m ~base:601 ~off:0));
  M.kill m 1;
  M.kill m 2;
  check_str "killed" "dead" (fault (fun () -> M.get m ~base:2 ~off:0));
  check_str "killed, written" "dead"
    (fault (fun () -> M.set m ~base:2 ~off:0 Interp.Value.one));
  check_str "killed empty block" "dead" (fault (fun () -> M.get m ~base:1 ~off:0));
  check_bool "size of a dead block" true (M.size m 2 = None);
  check_int "ids are not reused" 601 (M.alloc m ~size:1)

(* ------------------------------------------------------------------ *)
(* Equivalence golden

   Whole-program runs of the shipped workloads, fingerprinted: outcome,
   output, steps, every cost counter, and digests of what the hooks saw
   (the branch sequence, concretisations, checkpoint global access).  The
   expected lines were captured before the evaluator moved to slot-indexed
   frames and an array-backed block store; any change to the evaluator
   must reproduce them exactly. *)

let hex s = Digest.to_hex (Digest.string s)

type probe = {
  branches : Buffer.t;
  concretized : Buffer.t;
  checkpoints : Buffer.t;
}

let probe_hooks p =
  {
    Interp.Eval.on_branch =
      (fun ~bid ~iter ~taken ~cond ->
        Printf.bprintf p.branches "%d,%d,%b;" bid iter taken;
        if Interp.Value.is_symbolic cond then
          Printf.bprintf p.branches "%s;" (Interp.Value.to_string cond));
    on_concretize = (fun _ n -> Printf.bprintf p.concretized "%d;" n);
    on_checkpoint =
      (fun access ->
        List.iter
          (fun (name, size) ->
            Printf.bprintf p.checkpoints "%s/%d:" name size;
            for off = 0 to size - 1 do
              match access.read_global name off with
              | Some v -> Printf.bprintf p.checkpoints "%s," (Interp.Value.to_string v)
              | None -> Buffer.add_string p.checkpoints "-,"
            done)
          (access.list_globals ()));
  }

let fingerprint name (r : Interp.Eval.result) p =
  let c = r.cost in
  Printf.sprintf
    "%s | %s | out %d %s | steps %d | instr %d br %d lbr %d sys %d lsys %d | \
     branches %s | conc %s | ckpt %s"
    name
    (Interp.Crash.outcome_to_string r.outcome)
    (String.length r.output) (hex r.output) r.steps c.instr c.branches
    c.logged_branches c.syscalls c.logged_syscalls
    (hex (Buffer.contents p.branches))
    (hex (Buffer.contents p.concretized))
    (hex (Buffer.contents p.checkpoints))

let new_probe () =
  { branches = Buffer.create 4096; concretized = Buffer.create 64; checkpoints = Buffer.create 64 }

(* A concrete run on the simulated world, as at the user site. *)
let golden_concrete ?scheduler name (sc : Concolic.Scenario.t) =
  let p = new_probe () in
  let _w, handle = Osmodel.World.kernel sc.world in
  let r =
    Interp.Eval.run sc.prog
      {
        Interp.Eval.inputs = Interp.Inputs.of_strings sc.args;
        kernel = Interp.Kernel.of_world handle;
        hooks = probe_hooks p;
        max_steps = sc.max_steps;
        scheduler;
      }
  in
  fingerprint name r p

(* A concolic run with symbolic argv, stream bytes and syscall results, as
   in dynamic analysis. *)
let golden_symbolic name (sc : Concolic.Scenario.t) =
  let p = new_probe () in
  let vars = Solver.Symvars.create () in
  let world, handle = Osmodel.World.kernel sc.world in
  let sk =
    Concolic.Sym_kernel.create ~vars ~model:Solver.Model.empty ~world ~handle
      ~sym_results:true ()
  in
  let caps = (Concolic.Scenario.shape_of sc).arg_caps in
  let r =
    Interp.Eval.run sc.prog
      {
        Interp.Eval.inputs =
          Concolic.Sym_kernel.symbolic_args ~vars ~model:Solver.Model.empty sc ~caps;
        kernel = Concolic.Sym_kernel.kernel sk;
        hooks = probe_hooks p;
        max_steps = sc.max_steps;
        scheduler = None;
      }
  in
  fingerprint name r p

let golden_runs () =
  let userver = Workloads.Userver.scenario (Workloads.Http_gen.workload ~seed:11 12) in
  let file_a, file_b =
    Workloads.Diffutil.file_pair ~seed:5 ~lines:12 ~width:16 ~edits:3 ()
  in
  let diff = Workloads.Diffutil.scenario ~snapshot:false ~file_a ~file_b () in
  let coreutils =
    List.map
      (fun (e : Workloads.Coreutils.entry) ->
        golden_concrete e.util (Workloads.Coreutils.crash_scenario e))
      Workloads.Coreutils.catalog
  in
  let mtrace = Workloads.Mtrace.scenario ~seed:3 () in
  let sched_rng = Osmodel.Rng.create (mtrace.world.seed + 7919) in
  let scheduler =
    Instrument.Schedule_log.recording_scheduler ~rng:sched_rng
      (Instrument.Schedule_log.create ())
  in
  let ckpt =
    Workloads.Userver.checkpointed_scenario
      (Workloads.Http_gen.workload ~seed:3 12
      @ (Workloads.Userver.experiment 1).requests)
  in
  [ golden_concrete "userver" userver; golden_concrete "diff" diff ]
  @ coreutils
  @ [
      golden_concrete ~scheduler "mtrace" mtrace;
      golden_concrete "userver-ckpt" ckpt;
      golden_symbolic "paste-sym"
        (Workloads.Coreutils.analysis_scenario (Workloads.Coreutils.find "paste"));
      golden_symbolic "userver-exp2-sym"
        (Workloads.Userver.experiment_scenario (Workloads.Userver.experiment 2));
    ]

let golden_expected =
  [
    "userver | exit(0) | out 288 507f609439de7d18537a1b8054fce7cd | steps 49389 | instr 271473 br 21371 lbr 0 sys 195 lsys 0 \
     | branches c2d8e7a70c34f3256eadfbcd1089609c | conc d41d8cd98f00b204e9800998ecf8427e | ckpt d41d8cd98f00b204e9800998ecf8427e";
    "diff | exit(1) | out 133 b8c210d854f3c561e9897b5e38491a43 | steps 9317 | instr 55329 br 3992 lbr 0 sys 10 lsys 0 \
     | branches d2966c6c11a0044d7101edd04630b309 | conc d41d8cd98f00b204e9800998ecf8427e | ckpt d41d8cd98f00b204e9800998ecf8427e";
    "mkdir | CRASH: out-of-bounds at mkdir.c:8:5 (in apply_mode) | out 0 d41d8cd98f00b204e9800998ecf8427e | steps 99 | instr 570 br 36 lbr 0 sys 0 lsys 0 \
     | branches db08e575cf1b4c30a0946925b0c06cc1 | conc d41d8cd98f00b204e9800998ecf8427e | ckpt d41d8cd98f00b204e9800998ecf8427e";
    "mknod | CRASH: out-of-bounds at mknod.c:10:3 (in register_dev) | out 0 d41d8cd98f00b204e9800998ecf8427e | steps 107 | instr 527 br 48 lbr 0 sys 0 lsys 0 \
     | branches 89e7e3d1a75425e59667af6c6913476c | conc d41d8cd98f00b204e9800998ecf8427e | ckpt d41d8cd98f00b204e9800998ecf8427e";
    "mkfifo | CRASH: out-of-bounds at mkfifo.c:11:7 (in split_components) | out 0 d41d8cd98f00b204e9800998ecf8427e | steps 148 | instr 812 br 68 lbr 0 sys 0 lsys 0 \
     | branches c96ff9040e69f5460eb031d61a5f2b5f | conc d41d8cd98f00b204e9800998ecf8427e | ckpt d41d8cd98f00b204e9800998ecf8427e";
    "paste | CRASH: out-of-bounds at paste.c:19:5 (in decode_delim) | out 0 d41d8cd98f00b204e9800998ecf8427e | steps 151 | instr 704 br 48 lbr 0 sys 0 lsys 0 \
     | branches 596989169813e52f08b4b99374b98eb6 | conc d41d8cd98f00b204e9800998ecf8427e | ckpt d41d8cd98f00b204e9800998ecf8427e";
    "mtrace | CRASH: out-of-bounds at mtrace.c:18:9 (in worker) | out 0 d41d8cd98f00b204e9800998ecf8427e | steps 1122 | instr 5639 br 465 lbr 0 sys 0 lsys 0 \
     | branches d70b59f9f59dc59688b611a38b0dc5ff | conc d41d8cd98f00b204e9800998ecf8427e | ckpt d41d8cd98f00b204e9800998ecf8427e";
    "userver-ckpt | CRASH: out-of-bounds at userver-ckpt.c:158:5 (in handle_request) | out 275 a73da5175a1c7d0b61c8f8c1529f45b8 | steps 57585 | instr 320682 br 25818 lbr 0 sys 205 lsys 0 \
     | branches d15f036b3b5d6a75993b5f9e7bf8b8c8 | conc d41d8cd98f00b204e9800998ecf8427e | ckpt b36a59062a71b98bc943f702f6407700";
    "paste-sym | exit(0) | out 36 f948d5599006339d9b9aa46302671197 | steps 348 | instr 1682 br 124 lbr 0 sys 0 lsys 0 \
     | branches 5f6cf7ac34cec3c3b1e4f529af1a1c6d | conc d41d8cd98f00b204e9800998ecf8427e | ckpt d41d8cd98f00b204e9800998ecf8427e";
    "userver-exp2-sym | CRASH: div-by-zero at userver.c:210:9 (in handle_request) | out 0 d41d8cd98f00b204e9800998ecf8427e | steps 5678 | instr 30537 br 2371 lbr 0 sys 29 lsys 0 \
     | branches c5a161601e1eed1208783dcb7bdd60cb | conc c7c268245fcfce8a5e8330f276b8c8c8 | ckpt d41d8cd98f00b204e9800998ecf8427e";
  ]

let test_equivalence_golden () =
  let actual = golden_runs () in
  Alcotest.(check (list string)) "golden" golden_expected actual

let () =
  Alcotest.run "interp"
    [
      ( "semantics",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "C division" `Quick test_division_truncates_toward_zero;
          Alcotest.test_case "logical ops" `Quick test_logical_strictness_result;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "arrays and pointers" `Quick test_arrays_and_pointers;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "string literal output" `Quick test_string_literal;
          Alcotest.test_case "string literal bytes" `Quick test_string_literal_bytes;
          Alcotest.test_case "by-reference param" `Quick test_by_reference_param;
          Alcotest.test_case "array param" `Quick test_array_param;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "out of bounds" `Quick test_crash_oob;
          Alcotest.test_case "null deref" `Quick test_crash_null;
          Alcotest.test_case "div by zero" `Quick test_crash_div0;
          Alcotest.test_case "explicit crash" `Quick test_crash_explicit;
          Alcotest.test_case "assert failure" `Quick test_crash_assert;
          Alcotest.test_case "use after free" `Quick test_crash_use_after_free;
          Alcotest.test_case "stack overflow" `Quick test_crash_stack_overflow;
          Alcotest.test_case "crash site location" `Quick test_crash_site_location;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
        ] );
      ( "io",
        [
          Alcotest.test_case "exit" `Quick test_exit_builtin;
          Alcotest.test_case "arg" `Quick test_args;
          Alcotest.test_case "argc" `Quick test_argc;
          Alcotest.test_case "read file" `Quick test_read_file;
          Alcotest.test_case "open missing" `Quick test_open_missing_file;
          Alcotest.test_case "write stdout" `Quick test_write_stdout;
          Alcotest.test_case "server accept/read" `Quick test_server_accept_read;
          Alcotest.test_case "partial reads" `Quick test_world_partial_reads;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "branch hook count" `Quick
            test_branch_hook_fires_per_execution;
          Alcotest.test_case "branch directions" `Quick
            test_branch_hook_taken_direction;
          Alcotest.test_case "cost monotone" `Quick test_cost_monotone_in_work;
          Alcotest.test_case "abort hook" `Quick test_abort_hook;
        ] );
      ( "frames and memory",
        [
          Alcotest.test_case "local shadows global" `Quick test_local_shadows_global;
          Alcotest.test_case "recursion gets fresh blocks" `Quick
            test_recursion_fresh_blocks;
          Alcotest.test_case "dangling pointer after re-entry" `Quick
            test_dangling_after_reentry;
          Alcotest.test_case "forged pointers" `Quick test_forged_pointers;
          Alcotest.test_case "block ids follow allocation order" `Quick
            test_block_id_order;
          Alcotest.test_case "block store" `Quick test_block_store;
        ] );
      ( "golden",
        [ Alcotest.test_case "evaluator equivalence" `Quick test_equivalence_golden ] );
    ]
