(* The one error vocabulary shared by the daemon's wire responses and
   the command-line tools' exit paths: every failure a simulation
   request can hit maps to a stable machine code, a one-line human
   message, and (for the CLI) a documented exit code. *)

type t =
  | Bad_request of string
  | Parse_error of { line : int; msg : string }
  | Unknown_design of string
  | Max_events_exceeded of { max_events : int; t : float }
  | Max_steps_exceeded of { max_steps : int; t : float }
  | Solver_failure of { solver : string; msg : string }
  | Not_compilable of string
  | Deadline_exceeded of { budget_ms : float; checkpoint : string option }
  | Overloaded of { queue_bound : int }
  | Connection_limit of { max_conns : int }
  | Shard_failed of { shard : int }
  | Validation_failed of { issues : (string * string) list }
  | Internal of string

let code = function
  | Bad_request _ -> "bad_request"
  | Parse_error _ -> "parse_error"
  | Unknown_design _ -> "unknown_design"
  | Max_events_exceeded _ -> "max_events_exceeded"
  | Max_steps_exceeded _ -> "max_steps_exceeded"
  | Solver_failure _ -> "solver_failure"
  | Not_compilable _ -> "not_compilable"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Overloaded _ -> "overloaded"
  | Connection_limit _ -> "connection_limit"
  | Shard_failed _ -> "shard_failed"
  | Validation_failed _ -> "validation_failed"
  | Internal _ -> "internal"

let message = function
  | Bad_request msg -> msg
  | Parse_error { line; msg } ->
      Printf.sprintf "parse error at line %d: %s" line msg
  | Unknown_design name ->
      Printf.sprintf
        "%S is neither a file nor a built-in design (available: %s)" name
        (String.concat ", " (Designs.Catalog.names ()))
  | Max_events_exceeded { max_events; t } ->
      Printf.sprintf "max event count %d exceeded at t = %g" max_events t
  | Max_steps_exceeded { max_steps; t } ->
      Printf.sprintf "max step count %d exceeded at t = %g" max_steps t
  | Solver_failure { msg; _ } -> msg
  | Not_compilable msg -> Printf.sprintf "not DSD-compilable: %s" msg
  | Deadline_exceeded { budget_ms; checkpoint } -> (
      match checkpoint with
      | None -> Printf.sprintf "deadline of %g ms exceeded" budget_ms
      | Some token ->
          Printf.sprintf
            "deadline of %g ms exceeded (resumable; checkpoint %s)" budget_ms
            token)
  | Overloaded { queue_bound } ->
      Printf.sprintf "server overloaded (queue bound %d reached); retry later"
        queue_bound
  | Connection_limit { max_conns } ->
      Printf.sprintf
        "server connection limit (%d) reached; retry later" max_conns
  | Shard_failed { shard } ->
      Printf.sprintf
        "worker shard %d failed before completing the request; retry later"
        shard
  | Validation_failed { issues } -> (
      match issues with
      | [] -> "validation failed"
      | (c, detail) :: rest ->
          if rest = [] then Printf.sprintf "validation failed: %s (%s)" detail c
          else
            Printf.sprintf "validation failed with %d issues; first: %s (%s)"
              (List.length issues) detail c)
  | Internal msg -> Printf.sprintf "internal error: %s" msg

(* exit codes: 1 reserved for generic CLI failure, 2 for usage/input
   errors (cmdliner's own convention), then one code per runtime class
   so scripts can branch on how a simulation died *)
let exit_code = function
  | Bad_request _ | Parse_error _ | Unknown_design _ | Not_compilable _ -> 2
  | Max_events_exceeded _ | Max_steps_exceeded _ | Solver_failure _ -> 3
  | Deadline_exceeded _ -> 4
  | Overloaded _ | Connection_limit _ | Shard_failed _ -> 5
  | Validation_failed _ -> 6
  | Internal _ -> 70 (* EX_SOFTWARE *)

exception Rejected of t

let reject err = raise (Rejected err)

let of_exn = function
  | Rejected err -> Some err
  | Crn.Parser.Parse_error (line, msg) -> Some (Parse_error { line; msg })
  | Ssa.Gillespie.Error (Ssa.Gillespie.Max_events_exceeded { max_events; t })
    ->
      Some (Max_events_exceeded { max_events; t })
  | Ssa.Tau_leap.Error (Ssa.Tau_leap.Max_steps_exceeded { max_steps; t }) ->
      Some (Max_steps_exceeded { max_steps; t })
  | Hybrid.Engine.Error (Hybrid.Engine.Max_events_exceeded { max_events; t })
    ->
      Some (Max_events_exceeded { max_events; t })
  | Ode.Solver_error.Error ({ solver; _ } as e) ->
      Some (Solver_failure { solver; msg = Ode.Solver_error.to_string e })
  | Dsd.Translate.Not_compilable msg -> Some (Not_compilable msg)
  | _ -> None

(* ---------------------------------------------------------------- wire *)

let to_json err =
  let fields =
    match err with
    | Parse_error { line; _ } -> [ ("line", Json.int line) ]
    | Max_events_exceeded { max_events; t } ->
        [ ("max_events", Json.int max_events); ("t", Json.num t) ]
    | Max_steps_exceeded { max_steps; t } ->
        [ ("max_steps", Json.int max_steps); ("t", Json.num t) ]
    | Solver_failure { solver; _ } -> [ ("solver", Json.str solver) ]
    | Deadline_exceeded { budget_ms; checkpoint } ->
        ("budget_ms", Json.num budget_ms)
        :: (match checkpoint with
           | None -> []
           | Some token -> [ ("checkpoint", Json.str token) ])
    | Overloaded { queue_bound } -> [ ("queue_bound", Json.int queue_bound) ]
    | Connection_limit { max_conns } -> [ ("max_conns", Json.int max_conns) ]
    | Shard_failed { shard } -> [ ("shard", Json.int shard) ]
    | Validation_failed { issues } ->
        [
          ( "issues",
            Json.List
              (List.map
                 (fun (c, detail) ->
                   Json.Obj
                     [ ("code", Json.str c); ("detail", Json.str detail) ])
                 issues) );
        ]
    | _ -> []
  in
  Json.Obj
    (("code", Json.str (code err))
    :: ("message", Json.str (message err))
    :: fields)

let of_json j =
  let geti key d = Option.bind (Json.member key j) Json.to_int |> Option.value ~default:d in
  let getf key d = Option.bind (Json.member key j) Json.to_float |> Option.value ~default:d in
  let gets key d = Option.bind (Json.member key j) Json.to_str |> Option.value ~default:d in
  let msg = gets "message" "" in
  match Option.bind (Json.member "code" j) Json.to_str with
  | Some "bad_request" -> Bad_request msg
  | Some "parse_error" ->
      (* message re-renders through [message]: strip nothing, keep raw *)
      Parse_error { line = geti "line" 0; msg }
  | Some "unknown_design" -> Unknown_design msg
  | Some "max_events_exceeded" ->
      Max_events_exceeded { max_events = geti "max_events" 0; t = getf "t" 0. }
  | Some "max_steps_exceeded" ->
      Max_steps_exceeded { max_steps = geti "max_steps" 0; t = getf "t" 0. }
  | Some "solver_failure" ->
      Solver_failure { solver = gets "solver" "?"; msg }
  | Some "not_compilable" -> Not_compilable msg
  | Some "deadline_exceeded" ->
      Deadline_exceeded
        {
          budget_ms = getf "budget_ms" 0.;
          checkpoint = Option.bind (Json.member "checkpoint" j) Json.to_str;
        }
  | Some "overloaded" -> Overloaded { queue_bound = geti "queue_bound" 0 }
  | Some "connection_limit" ->
      Connection_limit { max_conns = geti "max_conns" 0 }
  | Some "shard_failed" -> Shard_failed { shard = geti "shard" (-1) }
  | Some "validation_failed" ->
      let issues =
        match Option.bind (Json.member "issues" j) Json.to_list with
        | None -> []
        | Some items ->
            List.filter_map
              (fun it ->
                match
                  ( Option.bind (Json.member "code" it) Json.to_str,
                    Option.bind (Json.member "detail" it) Json.to_str )
                with
                | Some c, Some d -> Some (c, d)
                | _ -> None)
              items
      in
      Validation_failed { issues }
  | Some "internal" -> Internal msg
  | Some other -> Internal (Printf.sprintf "unknown error code %S: %s" other msg)
  | None -> Internal "malformed error object"
