module Topology = Oregami_topology.Topology
module Constraints = Oregami_mapper.Constraints
module Ctx = Oregami_mapper.Ctx
module Budget = Oregami_mapper.Budget
module Isolate = Oregami_mapper.Isolate
module Strategy = Oregami_mapper.Strategy
module Stats = Oregami_mapper.Stats
module Mapping = Oregami_mapper.Mapping
module Metrics = Oregami_metrics.Metrics
module Workloads = Oregami_workloads.Workloads
module Clock = Oregami_prelude.Clock
module Memo = Oregami_prelude.Memo
module Pool = Oregami_prelude.Pool
module Rng = Oregami_prelude.Rng

type format = Tsv | Sexp

type request = {
  rq_id : int;
  rq_program : string;
  rq_topology : string;
  rq_bindings : (string * int) list;
  rq_options : Ctx.options;
  rq_retries : int;
}

type outcome = {
  r_id : int;
  r_program : string;
  r_topology : string;
  r_ok : bool;
  r_strategy : string;
  r_degradation : Stats.degradation option;
  r_completion : int option;
  r_elapsed_ms : float;
  r_attempts : int;
  r_fuel_used : int;
  r_error : string;
}

(* a LaRCS source is human-written text; anything beyond this is a
   stray binary or a mistake, and slurping it unchecked would let one
   request balloon the service's memory *)
let max_program_bytes = 1 lsl 20

let load_program path_or_workload =
  match
    List.find_opt
      (fun s -> s.Workloads.w_name = path_or_workload)
      (Workloads.all ())
  with
  | Some spec -> Ok (spec.Workloads.source, spec.Workloads.bindings)
  | None -> begin
    try
      let ic = open_in path_or_workload in
      (* close on every exit, including a short read raising
         End_of_file out of really_input_string *)
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          if len > max_program_bytes then
            Error
              (Printf.sprintf "%s: program too large: %d bytes (cap %d)"
                 path_or_workload len max_program_bytes)
          else Ok (really_input_string ic len, []))
    with
    | Sys_error m -> Error m
    | End_of_file ->
      Error (Printf.sprintf "%s: truncated read" path_or_workload)
  end

(* ------------------------------------------------------------------ *)
(* the option codec: one table shared by every front end              *)

(* serve lines, daemon lines and cluster traces all split the same way:
   on runs of spaces and tabs *)
let tokens line =
  String.split_on_char '\t' line
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun t -> t <> "")

type setting =
  | Options of (Ctx.options -> Ctx.options)
  | Constraint of (Constraints.spec -> Constraints.spec)
  | Retries of int

type option_key = {
  o_key : string;
  o_flag : string;
  o_docv : string;
  o_doc : string;
  o_repeatable : bool;
  o_parse : string -> (setting, string) result;
}

let non_negative what v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> Ok n
  | Some _ | None ->
    Error (Printf.sprintf "%s wants a non-negative integer, got %S" what v)

let names v = String.split_on_char ',' v |> List.filter (fun n -> n <> "")

let key ?flag ?(repeatable = false) o_key ~docv ~doc o_parse =
  {
    o_key;
    o_flag = Option.value flag ~default:o_key;
    o_docv = docv;
    o_doc = doc;
    o_repeatable = repeatable;
    o_parse;
  }

let option_table =
  let ( let+ ) r f = Result.map f r in
  let opts f = Ok (Options f) and cons f = Ok (Constraint f) in
  [
    key "fuel" ~docv:"UNITS"
      ~doc:
        "Abstract work-unit budget for the whole pipeline run (deterministic \
         across machines).  When it runs out the passes stop early and the \
         best partial mapping is returned, tagged as degraded."
      (fun v ->
        let+ n = non_negative "fuel" v in
        Options (fun o -> { o with Ctx.fuel = Some n }));
    key "deadline-ms" ~docv:"MS"
      ~doc:
        "Monotonic wall-clock deadline in milliseconds, measured from the \
         start of the run.  Like $(b,--fuel), expiry yields the best partial \
         mapping."
      (fun v ->
        match float_of_string_opt v with
        | Some f when f >= 0.0 -> opts (fun o -> { o with Ctx.deadline_ms = Some f })
        | Some _ | None ->
          Error
            (Printf.sprintf "deadline-ms wants a non-negative number, got %S" v));
    key "retries" ~docv:"N"
      ~doc:"Extra reduced-scope attempts after a failed or degraded one."
      (fun v ->
        let+ n = non_negative "retries" v in
        Retries n);
    key "seed" ~docv:"N" ~doc:"Seed for the mapping context's RNG."
      (fun v ->
        let+ seed = non_negative "seed" v in
        Options (fun o -> { o with Ctx.seed }));
    key "routing" ~docv:"ALG"
      ~doc:
        "Routing algorithm: $(b,mm-route) (per-message MM-Route), \
         $(b,oblivious) (the topology's deterministic single-path scheme), \
         $(b,coarse) (traffic-aggregated MM-Route for large graphs), or \
         $(b,auto) (the default: mm-route up to the multilevel threshold, \
         coarse above)."
      (fun v ->
        let+ routing =
          match v with
          (* "mm" is the historical spelling; keep it as an alias *)
          | "mm" | "mm-route" -> Ok Ctx.Mm_route
          | "oblivious" -> Ok Ctx.Oblivious
          | "coarse" -> Ok Ctx.Coarse
          | "auto" -> Ok Ctx.Auto
          | other ->
            Error
              (Printf.sprintf
                 "unknown routing %S (valid: mm-route, oblivious, coarse, auto)"
                 other)
        in
        Options (fun o -> { o with Ctx.routing }));
    key "only" ~repeatable:true ~docv:"STRATEGY"
      ~doc:
        "Compete only these registry strategies (repeatable); disables the \
         dispatch short-circuit so every named strategy is scored."
      (fun v -> opts (fun o -> { o with Ctx.only = names v }));
    key "exclude" ~repeatable:true ~docv:"STRATEGY"
      ~doc:"Drop a registry strategy from the selection (repeatable)."
      (fun v -> opts (fun o -> { o with Ctx.exclude = names v }));
    key "multilevel-threshold" ~docv:"N"
      ~doc:
        (Printf.sprintf
           "Task count beyond which the flat strategies stand aside for the \
            multilevel coarsen/map/refine tier (default %d)."
           Ctx.default_options.Ctx.multilevel_threshold)
      (fun v ->
        let+ n = non_negative "multilevel-threshold" v in
        Options (fun o -> { o with Ctx.multilevel_threshold = n }));
    (* placement constraints; [:] separates inside values since [=]
       already binds the key, e.g. pin=3:0,7:12 *)
    key "pin" ~repeatable:true ~docv:"TASK=PROC"
      ~doc:"Pin a task to a processor, e.g. $(b,--pin 3=0).  Repeatable."
      (fun v ->
        let+ pins = Constraints.parse_pins v in
        Constraint (fun c -> { c with Constraints.pins }));
    key "forbid" ~repeatable:true ~docv:"TASK=PROC"
      ~doc:"Forbid a task from a processor, e.g. $(b,--forbid 3=0).  Repeatable."
      (fun v ->
        let+ forbids = Constraints.parse_forbids v in
        Constraint (fun c -> { c with Constraints.forbids }));
    key "require" ~repeatable:true ~docv:"TASK=CLASS"
      ~doc:
        "Require a task to land on a processor of this capability class (see \
         the $(b,classes=) topology suffix), e.g. $(b,--require 3=mem).  \
         Overrides the program's $(b,requires) annotation.  Repeatable."
      (fun v ->
        let+ requires = Constraints.parse_requires v in
        Constraint (fun c -> { c with Constraints.requires }));
    key "skip" ~flag:"skip-class" ~repeatable:true ~docv:"CLASS"
      ~doc:
        "Exclude every processor of this capability class from placement \
         (they still route traffic).  Repeatable."
      (fun v -> cons (fun c -> { c with Constraints.skip_classes = names v }));
  ]

let option_keys keys = List.filter (fun d -> List.mem d.o_key keys) option_table

let constraint_keys = [ "pin"; "forbid"; "require"; "skip" ]

let set_options o = function
  | Options f -> f o
  | Constraint f -> { o with Ctx.constraints = f o.Ctx.constraints }
  | Retries _ -> o

let binding k v =
  match int_of_string_opt v with
  | Some n -> Ok (k, n)
  | None ->
    Error (Printf.sprintf "bad parameter %S (want an integer value)" (k ^ "=" ^ v))

let fold_options ~keys ~set ~other init toks =
  let ( let* ) = Result.bind in
  let step acc tok =
    let* acc, seen = acc in
    match String.index_opt tok '=' with
    | None | Some 0 -> Error (Printf.sprintf "bad token %S (want key=value)" tok)
    | Some i ->
      let k = String.sub tok 0 i in
      let v = String.sub tok (i + 1) (String.length tok - i - 1) in
      (* a repeated key is a typo (the second value would silently
         win): fail loudly instead *)
      if List.mem k seen then
        Error (Printf.sprintf "duplicate key %S (each key may appear once)" k)
      else
        let* acc =
          match List.find_opt (fun d -> d.o_key = k && List.mem k keys) option_table with
          | Some d -> Result.map (fun s -> set s acc) (d.o_parse v)
          | None -> other k v acc
        in
        Ok (acc, k :: seen)
  in
  Result.map fst (List.fold_left step (Ok (init, [])) toks)

(* ------------------------------------------------------------------ *)
(* request parsing                                                    *)

let default_retries = 2

let serve_keys = List.map (fun d -> d.o_key) option_table

let parse_request ~id line =
  match tokens line with
  | [] -> Ok None
  | t :: _ when t.[0] = '#' -> Ok None
  | [ _ ] -> Error "want: PROGRAM TOPOLOGY [key=value ...]"
  | program :: topology :: opts ->
    fold_options ~keys:serve_keys
      ~set:(fun s req ->
        match s with
        | Retries n -> { req with rq_retries = n }
        | s -> { req with rq_options = set_options req.rq_options s })
      (* anything else is a program parameter binding *)
      ~other:(fun k v req ->
        Result.map
          (fun b -> { req with rq_bindings = b :: req.rq_bindings })
          (binding k v))
      {
        rq_id = id;
        rq_program = program;
        rq_topology = topology;
        rq_bindings = [];
        rq_options = { Ctx.default_options with Ctx.fallback = true };
        rq_retries = default_retries;
      }
      opts
    |> Result.map (fun req -> Some { req with rq_bindings = List.rev req.rq_bindings })

(* the outcome of a request answered without a mapping *)
let refused ~id ~program ~topology e =
  {
    r_id = id;
    r_program = program;
    r_topology = topology;
    r_ok = false;
    r_strategy = "-";
    r_degradation = None;
    r_completion = None;
    r_elapsed_ms = 0.0;
    r_attempts = 0;
    r_fuel_used = 0;
    r_error = e;
  }

(* ------------------------------------------------------------------ *)
(* the attempt schedule                                               *)

let compete_names () =
  List.filter_map
    (fun (s : Strategy.t) ->
      if s.Strategy.tier = Strategy.Compete then Some s.Strategy.name else None)
    (Strategy.registry ())

(* reduced scope per retry: first drop refinement, then drop the whole
   competing tier so only the cheap dispatch paths (and the baseline
   fallback) remain *)
let attempt_options base = function
  | 0 -> base
  | 1 -> { base with Ctx.refine = false }
  | _ ->
    {
      base with
      Ctx.refine = false;
      Ctx.only = [];
      Ctx.exclude = List.sort_uniq compare (base.Ctx.exclude @ compete_names ());
    }

(* preference across attempts; retry only while something better is
   still reachable *)
let rank = function
  | Error _ -> 0
  | Ok (_, Stats.Fallback) -> 1
  | Ok (_, Stats.Truncated _) -> 2
  | Ok (_, Stats.Full) -> 3

(* Jittered exponential backoff between retry attempts.  A bare retry
   loop re-fires instantly, so when many requests on a pool (or many
   daemon clients) hit the same transient hiccup they all retry in
   lockstep; the jitter decorrelates them.  The delay only spends
   wall-clock — output bytes are unchanged, and the jitter draws from
   the request's own deterministic [Rng] stream, never from global
   state. *)
type backoff = {
  bo_base_ms : float;  (** delay before the first retry *)
  bo_factor : float;  (** multiplier per further retry *)
  bo_cap_ms : float;  (** ceiling on the un-jittered delay *)
  bo_jitter : float;
      (** [j] scales the delay uniformly in [[1-j, 1+j)]; [0] = none *)
}

let default_backoff =
  { bo_base_ms = 1.0; bo_factor = 2.0; bo_cap_ms = 50.0; bo_jitter = 0.5 }

(* [n] is the 1-based retry ordinal (first retry = 1) *)
let backoff_delay_ms bo rng n =
  let raw = bo.bo_base_ms *. (bo.bo_factor ** float_of_int (n - 1)) in
  let capped = Float.min bo.bo_cap_ms raw in
  let scale =
    if bo.bo_jitter <= 0.0 then 1.0
    else 1.0 -. bo.bo_jitter +. Rng.float rng (2.0 *. bo.bo_jitter)
  in
  Float.max 0.0 (capped *. scale)

(* ------------------------------------------------------------------ *)
(* shared artifact caches                                             *)

(* The two per-request setup costs worth amortising across a batch:
   compiling the LaRCS program and building the topology (with its hop
   matrix).  Both artifacts are immutable once built — a compiled
   program is never mutated by the pipeline, and a topology's
   Distcache state is domain-safe — so one copy can be shared
   read-only by every pool domain.  Error values are cached too: a
   missing program file fails once, not once per request naming it. *)
type caches = {
  c_programs :
    (string, (Oregami_larcs.Compile.compiled, string) result) Memo.t;
      (* key: program path/name + sorted bindings *)
  c_topologies : (string, (Topology.t, string) result) Memo.t;
      (* key: the topology spec string *)
}

(* the LRU bound every long-lived serving front end uses by default:
   a long [serve] stream and the daemon alike keep at most this many
   compiled programs and topologies resident *)
let default_cache_bound = 64

let caches ?bound () =
  { c_programs = Memo.create ?bound (); c_topologies = Memo.create ?bound () }

let program_key req =
  String.concat " "
    (req.rq_program
    :: List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (List.sort compare req.rq_bindings))

(* a setup crash is an error result, never an exception *)
let protected f =
  match Isolate.protect f with
  | Error exn -> Error ("internal crash: " ^ exn)
  | Ok r -> r

let compile_program req =
  let ( let* ) = Result.bind in
  protected (fun () ->
      let* source, defaults = load_program req.rq_program in
      let bindings =
        req.rq_bindings
        @ List.filter (fun (k, _) -> not (List.mem_assoc k req.rq_bindings)) defaults
      in
      Oregami_larcs.Compile.compile_source ~bindings source)

let build_topology spec =
  protected (fun () ->
      Result.map
        (fun t ->
          (* pre-warm the hop matrix once, here, so every request on
             this topology (from any domain) finds it published *)
          ignore (Oregami_topology.Distcache.hops t);
          t)
        (Topology.of_string spec))

let setup c req =
  let ( let* ) = Result.bind in
  (* topology first: its error wins over the program's *)
  let* topo =
    Memo.get c.c_topologies req.rq_topology (fun () ->
        build_topology req.rq_topology)
  in
  let* compiled =
    Memo.get c.c_programs (program_key req) (fun () -> compile_program req)
  in
  Ok (compiled, topo)

let run_request ?(backoff = default_backoff) ?breaker ?caches:shared req =
  let breaker =
    match breaker with Some b -> b | None -> Isolate.breaker ()
  in
  let caches = match shared with Some c -> c | None -> caches () in
  (* jitter stream decorrelated across requests of one batch *)
  let rng = Rng.create (req.rq_options.Ctx.seed + (977 * req.rq_id)) in
  let attempts = ref 0 in
  let fuel = ref 0 in
  let result, seconds =
    Clock.time (fun () ->
        match setup caches req with
        | Error e -> Error e
        | Ok (compiled, topo) ->
          let best = ref (Error "not attempted") in
          let n = ref 0 in
          let continue = ref true in
          while !continue && !n <= req.rq_retries do
            if !n > 0 then
              Unix.sleepf (backoff_delay_ms backoff rng !n /. 1e3);
            let options = attempt_options req.rq_options !n in
            let r, used =
              match
                Isolate.protect (fun () ->
                    let ctx = Ctx.of_compiled ~options ~breaker compiled topo in
                    let r = Driver.run ctx in
                    (r, Budget.fuel_used ctx.Ctx.budget))
              with
              | Error exn -> (Error ("internal crash: " ^ exn), 0)
              | Ok (r, used) -> (r, used)
            in
            incr n;
            fuel := !fuel + used;
            (* first attempt always lands, so a failing request reports
               its real error instead of the placeholder *)
            if !n = 1 || rank r > rank !best then best := r;
            (* 3 = Ok Full: nothing better is reachable *)
            if rank !best >= 3 then continue := false
          done;
          attempts := !n;
          !best)
  in
  let failed e =
    {
      (refused ~id:req.rq_id ~program:req.rq_program ~topology:req.rq_topology e) with
      r_elapsed_ms = seconds *. 1e3;
      r_attempts = !attempts;
      r_fuel_used = !fuel;
    }
  in
  match result with
  | Ok (m, deg) ->
    {
      (failed "") with
      r_ok = true;
      r_strategy = m.Mapping.strategy;
      r_degradation = Some deg;
      r_completion = Some (Metrics.completion_time m);
    }
  | Error e -> failed e

(* ------------------------------------------------------------------ *)
(* rendering                                                          *)

let sanitize s =
  String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s

let degradation_field o =
  match o.r_degradation with
  | None -> "-"
  | Some d -> Stats.degradation_string d

let render fmt o =
  match fmt with
  | Tsv ->
    Printf.sprintf "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%.3f\t%d\t%d\t%s" o.r_id
      (sanitize o.r_program) (sanitize o.r_topology)
      (if o.r_ok then "ok" else "error")
      o.r_strategy (degradation_field o)
      (match o.r_completion with None -> "-" | Some c -> string_of_int c)
      o.r_elapsed_ms o.r_attempts o.r_fuel_used
      (if o.r_error = "" then "-" else sanitize o.r_error)
  | Sexp ->
    Printf.sprintf
      "(result (id %d) (program %S) (topology %S) (status %s) (strategy %S) \
       (degradation %S) (completion %s) (elapsed-ms %.3f) (attempts %d) \
       (fuel %d)%s)"
      o.r_id o.r_program o.r_topology
      (if o.r_ok then "ok" else "error")
      o.r_strategy (degradation_field o)
      (match o.r_completion with None -> "-" | Some c -> string_of_int c)
      o.r_elapsed_ms o.r_attempts o.r_fuel_used
      (if o.r_error = "" then "" else Printf.sprintf " (error %S)" o.r_error)

(* ------------------------------------------------------------------ *)
(* the serve loop                                                     *)

let malformed ~id ~line e =
  match tokens line with
  | p :: t :: _ -> refused ~id ~program:p ~topology:t e
  | [ p ] -> refused ~id ~program:p ~topology:"-" e
  | [] -> refused ~id ~program:"-" ~topology:"-" e

(* Every request line becomes either a runnable request or, when it
   does not parse, its error outcome; blank and comment lines consume
   no id. *)
let read_requests ic f =
  let next_id = ref 0 in
  try
    while true do
      let line = input_line ic in
      match parse_request ~id:(!next_id + 1) line with
      | Ok None -> ()
      | Ok (Some req) ->
        incr next_id;
        f (Ok req)
      | Error e ->
        incr next_id;
        f (Error (malformed ~id:!next_id ~line e))
    done
  with End_of_file -> ()

let serve ?(format = Tsv) ?breaker ?(jobs = 1) ic oc =
  let breaker =
    match breaker with Some b -> b | None -> Isolate.breaker ()
  in
  let caches = caches ~bound:default_cache_bound () in
  let answer = function
    | Ok req -> run_request ~breaker ~caches req
    | Error o -> o
  in
  let failed = ref false in
  let emit o =
    if not o.r_ok then failed := true;
    output_string oc (render format o);
    output_char oc '\n';
    flush oc
  in
  (* jobs = 1 answers each line as soon as it is read, so an
     interactive client sees its answer before typing the next request;
     a wider pool needs random access, so it reads to end-of-file and
     fans the batch out, emitting in request order *)
  if jobs <= 1 then read_requests ic (fun item -> emit (answer item))
  else begin
    let work = ref [] in
    read_requests ic (fun item -> work := item :: !work);
    let work = Array.of_list (List.rev !work) in
    Pool.run ~jobs ~n:(Array.length work)
      ~task:(fun i -> answer work.(i))
      ~emit:(fun _ o -> emit o)
  end;
  if !failed then 1 else 0
