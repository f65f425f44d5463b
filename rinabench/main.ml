(* One trial of one workload, as a single JSON line on stdout:

     main.exe --workload relay_stream --seed 7 [--trace] [--spans FILE]

   [--trace] wraps every channel, flow send and receive callback in a
   span; [--spans] also writes the traffic-phase span log (TSV).
   [run.py] repeats trials and aggregates them. *)

open Rinabench

let json_float v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_obj kvs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_float v)) kvs)
  ^ "}"

let () =
  let workload = ref "" and seed = ref 1 and trace = ref false and spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME relay_lan | mobility_churn | lossy_incast | relay_stream");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Set trace, " record spans at the channel boundary");
      ("--spans", Arg.Set_string spans_file, "FILE write the span log here (with --trace)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N [--trace] [--spans FILE]";
  match Workloads.find !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some w ->
    let spans = if !trace then Some (Span.create ()) else None in
    let r = Run_trial.run w ~seed:!seed ~spans in
    (match spans with
    | Some s when !spans_file <> "" -> Out_channel.with_open_text !spans_file (Span.write s)
    | _ -> ());
    Printf.printf
      "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"digest\": %S, \"violations\": [%s], \"e2e\": %s, \"layer\": %s, \"slices_ms\": [%s]}\n"
      w.Workloads.name !seed !trace r.Run_trial.digest
      (String.concat ", " (List.map (Printf.sprintf "%S") r.Run_trial.violations))
      (json_obj r.Run_trial.e2e) (json_obj r.Run_trial.layer)
      (String.concat ", " (Array.to_list (Array.map json_float r.Run_trial.slices_ms)))
