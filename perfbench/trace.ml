(* Span recorder for the traced run.  Spans are recorded from outside
   the program, around calls into each layer's public functions; they
   stay in memory and are written out once, when the run ends, as
   Chrome trace-event JSON (Perfetto and chrome://tracing open it
   offline). *)

open Oregami

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  workload : string;
  t0 : float;  (* seconds, monotonic *)
  t1 : float;
  fuel : int;  (* Budget.fuel_used delta; 0 outside a mapping context *)
  alloc_mw : float;  (* Gc.minor_words delta, in millions of words *)
  contained : bool;
      (* timed by a separate call on the same input and reported as
         part of [parent]'s interval, not as extra coverage *)
  lane : int;  (* trace-viewer row *)
  args : (string * string) list;
}

type t = {
  workload : string;
  origin : float;
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;
}

let create workload = { workload; origin = Prelude.Clock.now (); spans = []; stack = [] }

(* ids are unique across recorders, so their spans can share a file *)
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let current t = match t.stack with p :: _ -> p | [] -> -1

let no_fuel () = 0

(* [span t name f] runs [f] as a child of the innermost open span *)
let span t ?(fuel = no_fuel) ?(args = fun _ -> []) name f =
  let id = fresh_id () in
  let parent = current t in
  t.stack <- id :: t.stack;
  let f0 = fuel () and a0 = Gc.minor_words () and t0 = Prelude.Clock.now () in
  let close result =
    let t1 = Prelude.Clock.now () in
    let a1 = Gc.minor_words () in
    t.stack <- List.tl t.stack;
    t.spans <-
      {
        id;
        name;
        parent;
        workload = t.workload;
        t0;
        t1;
        fuel = fuel () - f0;
        alloc_mw = (a1 -. a0) /. 1e6;
        contained = false;
        lane = 1;
        args = (match result with Some v -> args v | None -> [ ("raised", "true") ]);
      }
      :: t.spans
  in
  match f () with
  | v ->
    close (Some v);
    v
  | exception e ->
    close None;
    raise e

(* an inner layer timed by its own call, reported inside [parent] *)
let contained t ~parent ?(fuel = no_fuel) name f =
  let f0 = fuel () and a0 = Gc.minor_words () in
  let v, dt = Prelude.Clock.time f in
  let a1 = Gc.minor_words () in
  let p = List.find (fun s -> s.id = parent) t.spans in
  t.spans <-
    {
      id = fresh_id ();
      name;
      parent;
      workload = t.workload;
      t0 = p.t0;
      t1 = p.t0 +. dt;
      fuel = fuel () - f0;
      alloc_mw = (a1 -. a0) /. 1e6;
      contained = true;
      lane = 2;
      args = [];
    }
    :: t.spans;
  v

(* a span measured elsewhere (a daemon request from send to answer) *)
let add t ~lane ~args name ~t0 ~t1 =
  t.spans <-
    {
      id = fresh_id ();
      name;
      parent = -1;
      workload = t.workload;
      t0;
      t1;
      fuel = 0;
      alloc_mw = 0.0;
      contained = false;
      lane;
      args;
    }
    :: t.spans

let last t = List.hd t.spans

let dur s = s.t1 -. s.t0

(* the share of [root]'s duration its direct children cover *)
let coverage t root =
  let covered =
    List.fold_left
      (fun acc s -> if s.parent = root.id && not s.contained then acc +. dur s else acc)
      0.0 t.spans
  in
  covered /. dur root

let spans t = List.rev t.spans

(* ------------------------------------------------------------------ *)
(* aggregation                                                        *)

(* self time: a span's duration minus the time its children cover *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let before = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (before +. dur s)
      end)
    t.spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, Float.max 0.0 (dur s -. c)))
    (spans t)

type row = {
  r_name : string;
  r_calls : int;
  r_total : float;
  r_self : float;
  r_fuel : int;
  r_alloc_mw : float;
}

let table t =
  let rows = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (s, self) ->
      let r =
        match Hashtbl.find_opt rows s.name with
        | Some r -> r
        | None ->
          order := s.name :: !order;
          { r_name = s.name; r_calls = 0; r_total = 0.0; r_self = 0.0; r_fuel = 0;
            r_alloc_mw = 0.0 }
      in
      Hashtbl.replace rows s.name
        {
          r with
          r_calls = r.r_calls + 1;
          r_total = r.r_total +. dur s;
          r_self = r.r_self +. self;
          r_fuel = r.r_fuel + s.fuel;
          r_alloc_mw = r.r_alloc_mw +. s.alloc_mw;
        })
    (self_times t);
  List.rev_map (Hashtbl.find rows) !order

let print_table t =
  let rows = List.sort (fun a b -> compare b.r_self a.r_self) (table t) in
  let all_self = List.fold_left (fun acc r -> acc +. r.r_self) 0.0 rows in
  Printf.printf "%-28s %7s %12s %12s %7s %14s %12s\n" "span" "calls" "total ms"
    "self ms" "self %" "fuel" "alloc Mw";
  List.iter
    (fun r ->
      Printf.printf "%-28s %7d %12.3f %12.3f %6.1f%% %14d %12.3f\n" r.r_name r.r_calls
        (r.r_total *. 1e3) (r.r_self *. 1e3)
        (if all_self > 0.0 then 100.0 *. r.r_self /. all_self else 0.0)
        r.r_fuel r.r_alloc_mw)
    rows

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                            *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      let lanes =
        [ (1, "layers"); (2, "inner layers, timed separately") ]
        @ List.sort_uniq compare
            (List.filter_map
               (fun s ->
                 if s.lane > 2 then Some (s.lane, Printf.sprintf "connection %d" (s.lane - 2))
                 else None)
               t.spans)
      in
      List.iteri
        (fun i (lane, label) ->
          Printf.fprintf oc
            "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}"
            (if i = 0 then "" else ",\n")
            lane (json_string label))
        lanes;
      List.iter
        (fun s ->
          let args =
            [
              ("id", string_of_int s.id); ("parent", string_of_int s.parent);
              ("workload", json_string s.workload); ("fuel", string_of_int s.fuel);
              ("alloc_mw", Printf.sprintf "%.6f" s.alloc_mw);
              ("contained", string_of_bool s.contained);
            ]
            @ List.map (fun (k, v) -> (k, json_string v)) s.args
          in
          Printf.fprintf oc
            ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":%s,\"cat\":%s,\
             \"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
            s.lane (json_string s.name) (json_string s.workload)
            ((s.t0 -. t.origin) *. 1e6)
            (dur s *. 1e6)
            (String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) args)))
        (spans t);
      output_string oc "\n]}\n")
