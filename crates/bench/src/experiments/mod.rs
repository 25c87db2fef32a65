//! One module per regenerated table/figure; see DESIGN.md §6 for the
//! experiment index.

pub mod baseline;
pub mod calibrate;
pub mod complexity;
pub mod config;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod mc;
pub mod regress;
pub mod service;
pub mod table1;

use config::Config;
use kibamrm::discretise::{DiscretisationOptions, DiscretisedModel};
use kibamrm::model::KibamRm;
use kibamrm::report::{write_file, Curve};
use kibamrm::workload::Workload;
use std::path::PathBuf;
use units::{Charge, Current, Frequency, Rate};

/// The paper's Fig. 8 two-well reference model (on/off workload,
/// `C = 7200 As`, `c = 0.625`, `k = 4.5·10⁻⁵/s`) — the configuration the
/// perf baselines and the regression gate are anchored to.
pub fn fig8_model() -> Result<KibamRm, String> {
    let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
        .map_err(|e| e.to_string())?;
    KibamRm::new(
        w,
        Charge::from_amp_seconds(7200.0),
        0.625,
        Rate::per_second(4.5e-5),
    )
    .map_err(|e| e.to_string())
}

/// The Fig. 8 model discretised at `delta` (ampere-seconds).
pub fn discretise_fig8(delta: f64) -> Result<DiscretisedModel, String> {
    let model = fig8_model()?;
    DiscretisedModel::build(
        &model,
        &DiscretisationOptions::with_delta(Charge::from_amp_seconds(delta)),
    )
    .map_err(|e| e.to_string())
}

/// Writes a JSON artefact under the output directory.
pub fn write_json(cfg: &Config, name: &str, body: &str) -> Result<(), String> {
    let path = PathBuf::from(&cfg.out_dir).join(name);
    write_file(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Writes a set of curves as `<name>.csv` under the output directory.
pub fn save_curves(cfg: &Config, name: &str, x_name: &str, curves: &[Curve]) -> Result<(), String> {
    let path = PathBuf::from(&cfg.out_dir).join(format!("{name}.csv"));
    let csv = kibamrm::report::curves_to_csv(x_name, curves);
    write_file(&path, &csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Writes a CSV table under the output directory.
pub fn save_table(
    cfg: &Config,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Result<(), String> {
    let path = PathBuf::from(&cfg.out_dir).join(format!("{name}.csv"));
    let csv = kibamrm::report::table_to_csv(headers, rows);
    write_file(&path, &csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}
