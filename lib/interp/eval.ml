(** The MiniC evaluator.

    One evaluator serves every pipeline stage; stages differ only in the
    {!hooks}, the {!Kernel.t} and the symbolic shadows on inputs:

    - plain run / field run: concrete inputs, world kernel, logging hooks;
    - dynamic analysis: symbolic inputs, branch-labelling hooks;
    - replay: symbolic inputs, log-driven hooks that may abort the run.

    Using the same semantics for recording and replay is what guarantees
    that a fully-logged execution replays along the identical path. *)

open Minic

type loc_cell = { base : int; off : int; ty : Types.t }

(** Access to a running program's global variables, handed to the
    checkpoint hook so checkpoint/restore machinery can snapshot or rewrite
    global state without reaching into evaluator internals. *)
type global_access = {
  list_globals : unit -> (string * int) list;  (** name and cell count *)
  read_global : string -> int -> Value.t option;
  write_global : string -> int -> Value.t -> bool;
}

type hooks = {
  on_branch : bid:int -> iter:int -> taken:bool -> cond:Value.t -> unit;
      (** called at every executed branch, before entering the arm; may raise
          {!Abort_run}.  [iter] counts condition evaluations of the current
          execution of the enclosing statement: always [0] for [if], and
          [0, 1, 2, ...] across one run of a [while] (so [iter = 0] marks a
          fresh loop entry — the suppression reconstruction keys on it) *)
  on_concretize : Solver.Expr.t -> int -> unit;
      (** a symbolic value was forced to its concrete value (array index,
          pointer arithmetic, syscall argument) *)
  on_checkpoint : global_access -> unit;
      (** the program executed the [checkpoint()] builtin *)
}

let no_hooks =
  {
    on_branch = (fun ~bid:_ ~iter:_ ~taken:_ ~cond:_ -> ());
    on_concretize = (fun _ _ -> ());
    on_checkpoint = (fun _ -> ());
  }

exception Abort_run of string
(** Raised by hooks to abandon the current run (replay divergence). *)

(* Internal control-flow exceptions. *)
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc
exception Crash_exc of Crash.t
exception Exit_exc of int
exception Budget_exc

(* Cooperative threads (§6 multithreading) are built on OCaml effects: each
   MiniC thread is a fiber; [spawn]/[yield]/[join] perform effects handled
   by the scheduler trampoline in {!run}.  System calls are implicit yield
   points (the blocking points of a real kernel). *)
type _ Effect.t +=
  | Yield_eff : unit Effect.t
  | Spawn_eff : (string * Value.t) -> int Effect.t
  | Join_eff : int -> Value.t Effect.t
  | My_tid_eff : int Effect.t

(* A function's variables, resolved once per run: its parameters, then its
   locals, each mapped to a slot index.  Slot [i] of every activation holds
   the block of variable [i]; [types.(i)] is its declared type. *)
type layout = {
  slots : (string, int) Hashtbl.t;
  types : Types.t array;
  nparams : int;
}

type callee = Builtin | User of Ast.func * layout

type frame = { fn : Ast.func; layout : layout; blocks : int array }

type state = {
  prog : Program.t;
  mem : Memory.t;
  globals : (string, loc_cell) Hashtbl.t;  (** block and declared type *)
  callees : (string, callee) Hashtbl.t;
      (** built on a function's first call in this run; never shared across
          runs, so concurrent runs share no mutable state *)
  string_lits : (string, int) Hashtbl.t;
  inputs : Inputs.t;
  kernel : Kernel.t;
  hooks : hooks;
  cost : Cost.t;
  max_steps : int;
  out : Buffer.t;
  mutable frames : frame list;
  mutable depth : int;
  mutable steps : int;
  mutable cur_loc : Loc.t;
  mutable cur_func : string;
}

let max_depth = 2000
let cstring_scan_limit = 65536

let crash st kind =
  raise (Crash_exc { Crash.kind; loc = st.cur_loc; in_func = st.cur_func })

let step st =
  st.steps <- st.steps + 1;
  Cost.charge st.cost Cost.stmt;
  if st.steps > st.max_steps then raise Budget_exc

(* ------------------------------------------------------------------ *)
(* Variable lookup *)

let global_cell st x =
  match Hashtbl.find_opt st.globals x with
  | Some l -> l
  | None -> invalid_arg ("unbound variable " ^ x)

(* The block and type of variable [x]: the current frame's, else the
   global's. *)
let var_cell st x : loc_cell =
  match st.frames with
  | f :: _ -> (
      match Hashtbl.find_opt f.layout.slots x with
      | Some i -> { base = f.blocks.(i); off = 0; ty = f.layout.types.(i) }
      | None -> global_cell st x)
  | [] -> global_cell st x

let rec type_of_lval st (lv : Ast.lval) : Types.t =
  match lv with
  | Var x -> (var_cell st x).ty
  | Index (b, _) -> (
      match Types.element (type_of_lval st b) with Some t -> t | None -> Types.Tint)
  | Star e -> (
      match Types.element (type_of_expr st e) with Some t -> t | None -> Types.Tint)

and type_of_expr st (e : Ast.expr) : Types.t =
  match e with
  | Cint _ -> Types.Tint
  | Cstr _ -> Types.Tptr Types.Tint
  | Lval lv -> Types.decay (type_of_lval st lv)
  | Addr lv -> Types.Tptr (type_of_lval st lv)
  | Unop _ -> Types.Tint
  | Binop ((Add | Sub), a, b) ->
      let ta = type_of_expr st a in
      if Types.is_pointer ta then ta
      else
        let tb = type_of_expr st b in
        if Types.is_pointer tb then tb else Types.Tint
  | Binop _ -> Types.Tint
  | Ecall _ -> Types.Tint

(* ------------------------------------------------------------------ *)
(* Concretization of symbolic values used in concrete positions *)

let concretize st (v : Value.t) : int =
  match v.conc with
  | Int n ->
      (match v.sym with Some e -> st.hooks.on_concretize e n | None -> ());
      n
  | Ptr _ -> crash st Crash.Invalid_pointer

(* ------------------------------------------------------------------ *)
(* String literals *)

let intern_string st s =
  match Hashtbl.find_opt st.string_lits s with
  | Some b -> Value.ptr ~base:b ~off:0
  | None ->
      let n = String.length s in
      let b = Memory.alloc st.mem ~size:(n + 1) in
      String.iteri
        (fun i c -> Memory.set st.mem ~base:b ~off:i (Value.int_ (Char.code c)))
        s;
      Hashtbl.replace st.string_lits s b;
      Value.ptr ~base:b ~off:0

(* ------------------------------------------------------------------ *)
(* Expression evaluation *)

let op_to_expr : Ast.binop -> Solver.Expr.binop = function
  | Add -> Solver.Expr.Add
  | Sub -> Solver.Expr.Sub
  | Mul -> Solver.Expr.Mul
  | Div -> Solver.Expr.Div
  | Mod -> Solver.Expr.Mod
  | Eq -> Solver.Expr.Eq
  | Ne -> Solver.Expr.Ne
  | Lt -> Solver.Expr.Lt
  | Le -> Solver.Expr.Le
  | Gt -> Solver.Expr.Gt
  | Ge -> Solver.Expr.Ge
  | Land -> Solver.Expr.Land
  | Lor -> Solver.Expr.Lor
  | Band -> Solver.Expr.Band
  | Bor -> Solver.Expr.Bor
  | Bxor -> Solver.Expr.Bxor
  | Shl -> Solver.Expr.Shl
  | Shr -> Solver.Expr.Shr

let unop_to_expr : Ast.unop -> Solver.Expr.unop = function
  | Neg -> Solver.Expr.Neg
  | Lognot -> Solver.Expr.Lognot
  | Bitnot -> Solver.Expr.Bitnot

let shadow_binop op (a : Value.t) (b : Value.t) : Solver.Expr.t option =
  if not (Value.is_symbolic a || Value.is_symbolic b) then None
  else
    match Value.sym_or_const a, Value.sym_or_const b with
    | Some sa, Some sb -> Some (Solver.Expr.Binop (op_to_expr op, sa, sb))
    | _ -> None

let rec eval_expr st (e : Ast.expr) : Value.t =
  Cost.charge st.cost Cost.expr_node;
  match e with
  | Cint n -> Value.int_ n
  | Cstr s -> intern_string st s
  | Lval lv ->
      let l = resolve_lval st lv in
      load_loc st l
  | Addr lv ->
      let l = resolve_lval st lv in
      Value.ptr ~base:l.base ~off:l.off
  | Unop (op, a) -> (
      let va = eval_expr st a in
      match va.conc with
      | Int n ->
          let r =
            match op with
            | Neg -> -n
            | Lognot -> if n = 0 then 1 else 0
            | Bitnot -> lnot n
          in
          let sym =
            Option.map (fun s -> Solver.Expr.Unop (unop_to_expr op, s)) va.sym
          in
          { Value.conc = Int r; sym }
      | Ptr _ -> (
          (* only !p is meaningful on pointers *)
          match op with
          | Lognot -> Value.int_ 0
          | Neg | Bitnot -> crash st Crash.Invalid_pointer))
  | Binop (op, a, b) -> eval_binop st op a b
  | Ecall (f, _) -> invalid_arg ("call to " ^ f ^ " in expression position")

and eval_binop st op a_e b_e : Value.t =
  let a = eval_expr st a_e in
  let b = eval_expr st b_e in
  let shadow () = shadow_binop op a b in
  match a.conc, b.conc, op with
  (* pointer arithmetic *)
  | Ptr p, Int _, (Add | Sub) ->
      let n = concretize st b in
      let off = if op = Add then p.off + n else p.off - n in
      Value.ptr ~base:p.base ~off
  | Int _, Ptr p, Add ->
      let n = concretize st a in
      Value.ptr ~base:p.base ~off:(p.off + n)
  | Ptr p, Ptr q, Sub ->
      if p.base = q.base then Value.int_ (p.off - q.off)
      else crash st Crash.Invalid_pointer
  (* pointer comparisons; a null pointer is integer 0 *)
  | Ptr p, Ptr q, (Eq | Ne | Lt | Le | Gt | Ge) ->
      let r =
        if p.base = q.base then
          Solver.Expr.eval_binop (op_to_expr op) p.off q.off
        else
          match op with
          | Eq -> 0
          | Ne -> 1
          | _ -> crash st Crash.Invalid_pointer
      in
      Value.int_ r
  | Ptr _, Int n, (Eq | Ne) | Int n, Ptr _, (Eq | Ne) ->
      if n = 0 then Value.int_ (if op = Eq then 0 else 1)
      else crash st Crash.Invalid_pointer
  (* pointers as booleans *)
  | Ptr _, _, (Land | Lor) | _, Ptr _, (Land | Lor) ->
      let tr v = Value.truthy v in
      let r =
        match op with
        | Land -> tr a && tr b
        | Lor -> tr a || tr b
        | _ -> assert false
      in
      Value.int_ (if r then 1 else 0)
  | Int x, Int y, _ -> (
      match Solver.Expr.eval_binop (op_to_expr op) x y with
      | r -> { Value.conc = Int r; sym = shadow () }
      | exception Solver.Expr.Undefined -> crash st Crash.Div_by_zero)
  | _ -> crash st Crash.Invalid_pointer

and resolve_lval st (lv : Ast.lval) : loc_cell =
  match lv with
  | Var x -> var_cell st x
  | Index (b, idx) -> (
      let l = resolve_lval st b in
      let iv = eval_expr st idx in
      let n = concretize st iv in
      match l.ty with
      | Types.Tarr (el, _) -> { base = l.base; off = l.off + n; ty = el }
      | Types.Tptr el -> (
          let pv = load_raw st l in
          match pv.conc with
          | Ptr p -> { base = p.base; off = p.off + n; ty = el }
          | Int 0 -> crash st Crash.Null_deref
          | Int _ -> crash st Crash.Invalid_pointer)
      | Types.Tvoid | Types.Tint -> crash st Crash.Invalid_pointer)
  | Star e -> (
      let ty =
        match Types.element (type_of_expr st e) with
        | Some t -> t
        | None -> Types.Tint
      in
      let v = eval_expr st e in
      match v.conc with
      | Ptr p -> { base = p.base; off = p.off; ty }
      | Int 0 -> crash st Crash.Null_deref
      | Int _ -> crash st Crash.Invalid_pointer)

and load_raw st (l : loc_cell) : Value.t =
  match Memory.get st.mem ~base:l.base ~off:l.off with
  | v -> v
  | exception Memory.Fault f -> crash st (Memory.fault_to_crash_kind f)

(* Load with array decay: an array-typed location evaluates to a pointer. *)
and load_loc st (l : loc_cell) : Value.t =
  match l.ty with
  | Types.Tarr _ -> Value.ptr ~base:l.base ~off:l.off
  | Types.Tvoid | Types.Tint | Types.Tptr _ -> load_raw st l

let store_loc st (l : loc_cell) v =
  match Memory.set st.mem ~base:l.base ~off:l.off v with
  | () -> ()
  | exception Memory.Fault f -> crash st (Memory.fault_to_crash_kind f)

(* Read a NUL-terminated concrete string at [v]. *)
let read_cstring st (v : Value.t) : string =
  match v.conc with
  | Int 0 -> crash st Crash.Null_deref
  | Int _ -> crash st Crash.Invalid_pointer
  | Ptr p ->
      let buf = Buffer.create 32 in
      let rec go off n =
        if n > cstring_scan_limit then crash st Crash.Out_of_bounds
        else
          match Memory.get st.mem ~base:p.base ~off with
          | exception Memory.Fault f -> crash st (Memory.fault_to_crash_kind f)
          | cell -> (
              match cell.conc with
              | Int 0 -> ()
              | Int c ->
                  Buffer.add_char buf (Char.chr (c land 0xff));
                  go (off + 1) (n + 1)
              | Ptr _ -> crash st Crash.Invalid_pointer)
      in
      go p.off 0;
      Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Builtins *)

let expect_ptr st (v : Value.t) : int * int =
  match v.conc with
  | Ptr { base; off } -> (base, off)
  | Int 0 -> crash st Crash.Null_deref
  | Int _ -> crash st Crash.Invalid_pointer

let do_syscall st (req : Osmodel.Sysreq.req) : Kernel.reply =
  (* system calls are scheduling points when other threads are ready *)
  Effect.perform Yield_eff;
  Cost.charge_syscall st.cost;
  st.kernel req

let builtin_call st name (args : Value.t list) : Value.t =
  match name, args with
  | "argc", [] -> Value.int_ (Inputs.arg_count st.inputs)
  | "arg", [ i; buf; cap ] ->
      let i = concretize st i in
      let cap = concretize st cap in
      let pbase, poff = expect_ptr st buf in
      if i < 0 || i >= Inputs.arg_count st.inputs || cap <= 0 then Value.int_ (-1)
      else begin
        let a = st.inputs.args.(i) in
        let n = min (Array.length a.bytes) (cap - 1) in
        for j = 0 to n - 1 do
          store_loc st
            { base = pbase; off = poff + j; ty = Types.Tint }
            { Value.conc = Int a.bytes.(j); sym = a.syms.(j) }
        done;
        store_loc st { base = pbase; off = poff + n; ty = Types.Tint } Value.zero;
        Value.int_ n
      end
  | "read", [ fd; buf; count ] ->
      let fd = concretize st fd in
      let count = concretize st count in
      let pbase, poff = expect_ptr st buf in
      let reply = do_syscall st (Osmodel.Sysreq.Read { fd; count }) in
      let ret =
        match reply.res with
        | Osmodel.Sysreq.R_read { count = n; data } ->
            for j = 0 to n - 1 do
              let sym =
                if j < Array.length reply.data_sym then reply.data_sym.(j)
                else None
              in
              store_loc st
                { base = pbase; off = poff + j; ty = Types.Tint }
                { Value.conc = Int data.(j); sym }
            done;
            n
        | Osmodel.Sysreq.R_int n -> n
      in
      { Value.conc = Int ret; sym = reply.ret_sym }
  | "write", [ fd; buf; count ] ->
      let fd = concretize st fd in
      let count = concretize st count in
      let pbase, poff = expect_ptr st buf in
      let data =
        Array.init (max count 0) (fun j ->
            let cell =
              load_raw st { base = pbase; off = poff + j; ty = Types.Tint }
            in
            match cell.conc with
            | Int n -> n land 0xff
            | Ptr _ -> crash st Crash.Invalid_pointer)
      in
      let reply = do_syscall st (Osmodel.Sysreq.Write { fd; data }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "open", [ path; flags ] ->
      let path = read_cstring st path in
      let flags = concretize st flags in
      let reply = do_syscall st (Osmodel.Sysreq.Open { path; flags }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "close", [ fd ] ->
      let fd = concretize st fd in
      let reply = do_syscall st (Osmodel.Sysreq.Close { fd }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "select", [] ->
      let reply = do_syscall st Osmodel.Sysreq.Select in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "ready_fd", [ index ] ->
      let index = concretize st index in
      let reply = do_syscall st (Osmodel.Sysreq.Ready_fd { index }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "accept", [] ->
      let reply = do_syscall st Osmodel.Sysreq.Accept in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "listen", [ port ] ->
      let port = concretize st port in
      let reply = do_syscall st (Osmodel.Sysreq.Listen { port }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "print_int", [ v ] ->
      Buffer.add_string st.out (string_of_int (concretize st v));
      Value.zero
  | "print_str", [ v ] ->
      Buffer.add_string st.out (read_cstring st v);
      Value.zero
  | "exit", [ code ] -> raise (Exit_exc (concretize st code))
  | "crash", [] -> crash st Crash.Explicit_crash
  | "checkpoint", [] ->
      let access =
        {
          list_globals =
            (fun () ->
              Hashtbl.fold
                (fun name (g : loc_cell) acc ->
                  match Memory.size st.mem g.base with
                  | Some n -> (name, n) :: acc
                  | None -> acc)
                st.globals []);
          read_global =
            (fun name off ->
              match Hashtbl.find_opt st.globals name with
              | None -> None
              | Some g -> (
                  match Memory.get st.mem ~base:g.base ~off with
                  | v -> Some v
                  | exception Memory.Fault _ -> None));
          write_global =
            (fun name off v ->
              match Hashtbl.find_opt st.globals name with
              | None -> false
              | Some g -> (
                  match Memory.set st.mem ~base:g.base ~off v with
                  | () -> true
                  | exception Memory.Fault _ -> false));
        }
      in
      st.hooks.on_checkpoint access;
      Value.zero
  | "assert", [ v ] ->
      if Value.truthy v then Value.zero else crash st Crash.Assert_failure
  | "spawn", [ name; arg ] ->
      let fname = read_cstring st name in
      Value.int_ (Effect.perform (Spawn_eff (fname, arg)))
  | "yield", [] ->
      Effect.perform Yield_eff;
      Value.zero
  | "join", [ tid ] -> Effect.perform (Join_eff (concretize st tid))
  | "my_tid", [] -> Value.int_ (Effect.perform My_tid_eff)
  | _ ->
      invalid_arg
        (Printf.sprintf "builtin %s: bad arity %d" name (List.length args))

(* ------------------------------------------------------------------ *)
(* Frames *)

let cells_of = function
  | Types.Tarr (_, n) -> n
  | Types.Tvoid | Types.Tint | Types.Tptr _ -> 1

let layout_of (fn : Ast.func) =
  let vars =
    fn.fparams @ List.map (fun (d : Ast.var_decl) -> (d.vname, d.vtyp)) fn.flocals
  in
  let slots = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace slots name i) vars;
  { slots; types = Array.of_list (List.map snd vars); nparams = List.length fn.fparams }

let callee st fname =
  match Hashtbl.find_opt st.callees fname with
  | Some c -> c
  | None ->
      let c =
        (* builtins take priority over user functions of the same name *)
        if Minic.Builtin.is_builtin fname then Builtin
        else
          match Program.find_func st.prog fname with
          | None -> invalid_arg ("call to unknown function " ^ fname)
          | Some fn -> User (fn, layout_of fn)
      in
      Hashtbl.replace st.callees fname c;
      c

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec exec_stmt st (s : Ast.stmt) : unit =
  st.cur_loc <- s.sloc;
  step st;
  match s.sdesc with
  | Sassign (lv, e) ->
      let v = eval_expr st e in
      let l = resolve_lval st lv in
      store_loc st l v
  | Scall (lvo, f, args) -> (
      let vs = List.map (eval_expr st) args in
      let ret = call st f vs in
      st.cur_loc <- s.sloc;
      match lvo with
      | None -> ()
      | Some lv ->
          let l = resolve_lval st lv in
          store_loc st l ret)
  | Sif (br, cond, then_b, else_b) ->
      let v = eval_expr st cond in
      let taken = Value.truthy v in
      Cost.charge_branch st.cost;
      st.hooks.on_branch ~bid:br.bid ~iter:0 ~taken ~cond:v;
      exec_block st (if taken then then_b else else_b)
  | Swhile (br, cond, body) -> (
      let rec loop iter =
        st.cur_loc <- s.sloc;
        step st;
        let v = eval_expr st cond in
        let taken = Value.truthy v in
        Cost.charge_branch st.cost;
        st.hooks.on_branch ~bid:br.bid ~iter ~taken ~cond:v;
        if taken then begin
          (try exec_block st body with Continue_exc -> ());
          loop (iter + 1)
        end
      in
      try loop 0 with Break_exc -> ())
  | Sreturn None -> raise (Return_exc Value.zero)
  | Sreturn (Some e) -> raise (Return_exc (eval_expr st e))
  | Sbreak -> raise Break_exc
  | Scontinue -> raise Continue_exc
  | Sblock b -> exec_block st b

and exec_block st (b : Ast.block) = List.iter (exec_stmt st) b

and call st fname (args : Value.t list) : Value.t =
  Cost.charge st.cost Cost.call_overhead;
  match callee st fname with
  | Builtin -> builtin_call st fname args
  | User (fn, layout) ->
      st.depth <- st.depth + 1;
      if st.depth > max_depth then crash st Crash.Stack_overflow;
      if List.length args <> layout.nparams then
        invalid_arg (Printf.sprintf "arity mismatch calling %s" fname);
      (* blocks are allocated in slot order: parameters, then locals *)
      let blocks =
        Array.map (fun ty -> Memory.alloc st.mem ~size:(cells_of ty)) layout.types
      in
      List.iteri (fun i v -> Memory.set st.mem ~base:blocks.(i) ~off:0 v) args;
      let frame = { fn; layout; blocks } in
      let saved_func = st.cur_func in
      st.frames <- frame :: st.frames;
      st.cur_func <- fname;
      let cleanup () =
        st.frames <- (match st.frames with _ :: r -> r | [] -> []);
        Array.iter (Memory.kill st.mem) frame.blocks;
        st.depth <- st.depth - 1;
        st.cur_func <- saved_func
      in
      (try
         exec_block st fn.fbody;
         cleanup ();
         Value.zero
       with
      | Return_exc v ->
          cleanup ();
          v
      | e ->
          cleanup ();
          raise e)

(* ------------------------------------------------------------------ *)
(* Program entry *)

type config = {
  inputs : Inputs.t;
  kernel : Kernel.t;
  hooks : hooks;
  max_steps : int;
  scheduler : (int list -> int) option;
      (** thread-scheduling policy: given the ready thread ids (in queue
          order), return the one to run.  Consulted only when two or more
          threads are ready; [None] = run the first (round-robin).  The
          field run logs these decisions; replay replays them.  May raise
          {!Abort_run} on schedule divergence. *)
}

let default_config =
  {
    inputs = Inputs.of_strings [];
    kernel = (fun _ -> Kernel.concrete_reply (Osmodel.Sysreq.R_int (-1)));
    hooks = no_hooks;
    max_steps = 10_000_000;
    scheduler = None;
  }

type result = {
  outcome : Crash.outcome;
  cost : Cost.t;
  output : string;  (** text printed via print_int / print_str *)
  steps : int;
}

let init_state prog (cfg : config) : state =
  let mem = Memory.create () in
  let globals = Hashtbl.create 32 in
  let st =
    {
      prog;
      mem;
      globals;
      callees = Hashtbl.create 32;
      string_lits = Hashtbl.create 32;
      inputs = cfg.inputs;
      kernel = cfg.kernel;
      hooks = cfg.hooks;
      cost = Cost.create ();
      max_steps = cfg.max_steps;
      out = Buffer.create 256;
      frames = [];
      depth = 0;
      steps = 0;
      cur_loc = Loc.none;
      cur_func = "<toplevel>";
    }
  in
  List.iter
    (fun (d : Ast.var_decl) ->
      let b = Memory.alloc mem ~size:(cells_of d.vtyp) in
      Hashtbl.replace globals d.vname { base = b; off = 0; ty = d.vtyp };
      (* a zero-length array drops its initialiser *)
      let init v = try Memory.set mem ~base:b ~off:0 v with Memory.Fault _ -> () in
      match d.vinit with
      | None -> ()
      | Some (Ast.Cint n) -> init (Value.int_ n)
      | Some (Ast.Unop (Ast.Neg, Ast.Cint n)) -> init (Value.int_ (-n))
      | Some (Ast.Cstr s) -> init (intern_string st s)
      | Some _ -> invalid_arg ("unsupported global initialiser for " ^ d.vname))
    prog.globals;
  st

(* Saved per-thread execution context, swapped at scheduling points. *)
type saved_ctx = {
  s_frames : frame list;
  s_depth : int;
  s_func : string;
  s_loc : Loc.t;
}

let capture_ctx st =
  { s_frames = st.frames; s_depth = st.depth; s_func = st.cur_func; s_loc = st.cur_loc }

let restore_ctx st s =
  st.frames <- s.s_frames;
  st.depth <- s.s_depth;
  st.cur_func <- s.s_func;
  st.cur_loc <- s.s_loc

(** Run [prog]'s [main] under the given configuration.

    The scheduler trampoline below also hosts the cooperative threads of
    the §6 multithreading extension: [main] is thread 0; [spawn] adds
    fibers; [yield], [join] and every system call are scheduling points.  A
    crash in any thread crashes the program (as a signal would). *)
let run (prog : Program.t) (cfg : config) : result =
  let st = init_state prog cfg in
  let open Effect.Deep in
  let ready : (int * (unit -> unit)) list ref = ref [] in
  let results : (int, Value.t) Hashtbl.t = Hashtbl.create 8 in
  let waiters : (int, (int * (Value.t -> unit)) list) Hashtbl.t = Hashtbl.create 8 in
  let next_tid = ref 1 in
  let current_tid = ref 0 in
  let main_value = ref None in
  let enqueue tid f = ready := !ready @ [ (tid, f) ] in
  let rec remove_tid tid = function
    | [] -> []
    | (t, _) :: rest when t = tid -> rest
    | x :: rest -> x :: remove_tid tid rest
  in
  let pick () =
    match !ready with
    | [] -> None
    | [ (tid, f) ] ->
        ready := [];
        Some (tid, f)
    | l -> (
        let tids = List.map fst l in
        let chosen =
          match cfg.scheduler with Some policy -> policy tids | None -> List.hd tids
        in
        match List.assoc_opt chosen l with
        | Some f ->
            ready := remove_tid chosen l;
            Some (chosen, f)
        | None -> raise (Abort_run "scheduler chose a thread that is not ready"))
  in
  let wake tid v =
    match Hashtbl.find_opt waiters tid with
    | None -> ()
    | Some ws ->
        Hashtbl.remove waiters tid;
        List.iter (fun (wtid, resume) -> enqueue wtid (fun () -> resume v)) ws
  in
  let rec run_fiber tid (body : unit -> Value.t) : unit =
    match_with body ()
      {
        retc =
          (fun v ->
            Hashtbl.replace results tid v;
            if tid = 0 then main_value := Some v;
            wake tid v);
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield_eff ->
                Some
                  (fun (k : (a, _) continuation) ->
                    if !ready = [] then continue k () (* nothing to switch to *)
                    else begin
                      let saved = capture_ctx st in
                      enqueue tid (fun () ->
                          restore_ctx st saved;
                          continue k ())
                    end)
            | Spawn_eff (fname, arg) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    let tid' = !next_tid in
                    incr next_tid;
                    (match Program.find_func prog fname with
                    | Some f when List.length f.fparams = 1 ->
                        enqueue tid' (fun () ->
                            st.frames <- [];
                            st.depth <- 0;
                            st.cur_func <- fname;
                            st.cur_loc <- f.floc;
                            run_fiber tid' (fun () -> call st fname [ arg ]))
                    | Some _ ->
                        invalid_arg
                          (Printf.sprintf "spawn: %s must take one int argument"
                             fname)
                    | None -> invalid_arg ("spawn: unknown function " ^ fname));
                    continue k tid')
            | Join_eff t ->
                Some
                  (fun (k : (a, _) continuation) ->
                    match Hashtbl.find_opt results t with
                    | Some v -> continue k v
                    | None ->
                        let saved = capture_ctx st in
                        let ws =
                          match Hashtbl.find_opt waiters t with
                          | Some l -> l
                          | None -> []
                        in
                        Hashtbl.replace waiters t
                          (( tid,
                             fun v ->
                               restore_ctx st saved;
                               continue k v )
                          :: ws))
            | My_tid_eff ->
                Some (fun (k : (a, _) continuation) -> continue k !current_tid)
            | _ -> None);
      }
  in
  let rec spin () =
    if !main_value <> None then ()
    else
      match pick () with
      | None ->
          if !main_value = None then
            raise (Abort_run "deadlock: all threads blocked")
      | Some (tid, f) ->
          current_tid := tid;
          f ();
          spin ()
  in
  let outcome =
    match
      enqueue 0 (fun () -> run_fiber 0 (fun () -> call st "main" []));
      spin ()
    with
    | () -> (
        match !main_value with
        | Some v ->
            let code =
              match v.Value.conc with Value.Int n -> n | Value.Ptr _ -> 0
            in
            Crash.Exit code
        | None -> Crash.Aborted "main never completed")
    | exception Exit_exc code -> Crash.Exit code
    | exception Crash_exc c -> Crash.Crash c
    | exception Budget_exc -> Crash.Budget_exhausted
    | exception Abort_run why -> Crash.Aborted why
  in
  { outcome; cost = st.cost; output = Buffer.contents st.out; steps = st.steps }
