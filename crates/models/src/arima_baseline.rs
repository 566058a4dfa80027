//! The ARIMA baseline wrapped as a [`Forecaster`], so the shared harness
//! can evaluate it alongside the deep models.
//!
//! ARIMA is not trained by gradient descent: [`ArimaBaseline::fit`] fits
//! one per-entity model on the training split (classic practice for this
//! baseline), and `forward` produces forecasts by Kalman-filtering each
//! window's history. The `ParamStore` stays empty — the parameter count
//! reported for ARIMA is the (p + q) coefficients per entity, exposed via
//! [`ArimaBaseline::num_coefficients`].

use crate::config::ModelDims;
use enhancenet::{Forecaster, ForwardCtx};
use enhancenet_arima::{Arima, ArimaConfig};
use enhancenet_autodiff::{Graph, ParamStore, Var};
use enhancenet_data::{StandardScaler, WindowDataset};
use enhancenet_tensor::Tensor;

/// Per-entity ARIMA models behind the [`Forecaster`] interface.
pub struct ArimaBaseline {
    store: ParamStore,
    dims: ModelDims,
    config: ArimaConfig,
    models: Vec<Arima>,
    scaler: StandardScaler,
}

impl ArimaBaseline {
    /// Fits one ARIMA per entity on the dataset's training timestamps.
    pub fn fit(dims: ModelDims, config: ArimaConfig, data: &WindowDataset) -> Self {
        let n = data.num_entities();
        assert_eq!(n, dims.num_entities, "entity count mismatch");
        let train_steps = data.split.train.end + data.h;
        let models = (0..n)
            .map(|e| {
                let series: Vec<f32> =
                    (0..train_steps).map(|t| data.raw.at(&[t, e, data.target_feature])).collect();
                Arima::fit(&series, config)
            })
            .collect();
        Self { store: ParamStore::new(), dims, config, models, scaler: data.scaler.clone() }
    }

    /// Total fitted coefficients (p + q per entity) — ARIMA's analogue of
    /// the "# Para" column.
    pub fn num_coefficients(&self) -> usize {
        self.models.iter().map(|m| m.phi().len() + m.theta().len()).sum()
    }

    /// The fitted orders.
    pub fn config(&self) -> ArimaConfig {
        self.config
    }
}

impl Forecaster for ArimaBaseline {
    fn name(&self) -> &str {
        "ARIMA"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        self.dims.output_len
    }

    fn input_shape(&self) -> Option<[usize; 3]> {
        Some([self.dims.input_len, self.dims.num_entities, self.dims.in_features])
    }

    /// Forecasts each window by filtering its (raw-scale) history. The
    /// input arrives scaled, so it is inverted through the stored scaler
    /// first; outputs are re-scaled to match the harness contract.
    fn forward_on(
        &self,
        g: &mut Graph,
        _store: &ParamStore,
        x: &Tensor,
        _ctx: &mut ForwardCtx,
    ) -> Var {
        let (b, h, n, _c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let f = self.dims.output_len;
        let mut out = Tensor::zeros(&[b, f, n]);
        for bi in 0..b {
            for e in 0..n {
                let history: Vec<f32> = (0..h)
                    .map(|t| {
                        let scaled = x.at(&[bi, t, e, 0]);
                        scaled * self.scaler.std(0) + self.scaler.mean(0)
                    })
                    .collect();
                let forecast = self.models[e].forecast(&history, f);
                for (t, v) in forecast.iter().enumerate() {
                    let rescaled = (v - self.scaler.mean(0)) / self.scaler.std(0);
                    out.set(&[bi, t, e], rescaled);
                }
            }
        }
        g.constant(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet_data::traffic::{generate_traffic, TrafficConfig};
    use enhancenet_tensor::TensorRng;

    fn setup() -> (WindowDataset, ArimaBaseline) {
        let ds = generate_traffic(&TrafficConfig::tiny(4, 3));
        let data = WindowDataset::from_series(&ds, 12, 12).unwrap();
        let dims =
            ModelDims { num_entities: 4, in_features: 1, hidden: 0, input_len: 12, output_len: 12 };
        let model = ArimaBaseline::fit(dims, ArimaConfig::paper_default(), &data);
        (data, model)
    }

    #[test]
    fn fits_one_model_per_entity() {
        let (_, model) = setup();
        assert_eq!(model.models.len(), 4);
        assert_eq!(model.num_coefficients(), 4 * 4); // p=3 + q=1 each
        assert_eq!(model.name(), "ARIMA");
    }

    #[test]
    fn forward_shape_and_scale() {
        let (data, model) = setup();
        let x = data.input_window(0).unsqueeze(0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(1);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = model.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[1, 12, 4]);
        // Back in the raw scale, forecasts must be plausible speeds.
        let raw = data.scaler.inverse_feature(g.value(y), 0);
        assert!(raw.min_all() > -20.0 && raw.max_all() < 120.0, "{:?}", raw);
    }

    #[test]
    fn forecasts_beat_global_mean_on_test_windows() {
        let (data, model) = setup();
        let mut rng = TensorRng::seed(2);
        let mut err_arima = 0.0f32;
        let mut err_mean = 0.0f32;
        let global_mean = data.scaler.mean(0);
        for start in data.split.test.clone().step_by(97).take(8) {
            let x = data.input_window(start).unsqueeze(0);
            let truth = data.target_window(start);
            let mut g = Graph::new();
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = model.forward(&mut g, &x, &mut ctx);
            let raw = data.scaler.inverse_feature(g.value(y), 0).reshape(&[12, 4]);
            err_arima += raw.sub_t(&truth).abs_t().mean_all();
            err_mean += truth.map(|v| (v - global_mean).abs()).mean_all();
        }
        assert!(
            err_arima < err_mean,
            "ARIMA {err_arima} should beat the global-mean predictor {err_mean}"
        );
    }
}
